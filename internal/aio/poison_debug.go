//go:build readoptdebug

package aio

// poisonUnit overwrites a unit the consumer has given up — at the Next
// that recycles it and before it goes back to the pool — so a scanner
// that kept a slice past the Reader contract decodes 0xA5 garbage and
// the differential suites report a byte mismatch, instead of reading
// whatever file the unit's next owner put there.
func poisonUnit(b []byte) {
	for i := range b {
		b[i] = 0xA5
	}
}
