//go:build !readoptdebug

package aio

// Unit poisoning is compiled out of release builds; build with -tags
// readoptdebug to overwrite every unit the consumer gives up.
func poisonUnit([]byte) {}
