package scan

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/readoptdb/readopt/internal/compress"
	"github.com/readoptdb/readopt/internal/exec"
	"github.com/readoptdb/readopt/internal/fault"
	"github.com/readoptdb/readopt/internal/schema"
)

// fuzzAttachRows keeps one fuzz input to a few payload pages per codec.
const fuzzAttachRows = 1200

// fuzzPayload derives a payload column from the fuzzer's codec and
// width bytes, together with an inner predicate keeping about half its
// rows and a value generator the codec can always encode.
func fuzzPayload(codec, width uint8) (attr schema.Attribute, dict *compress.Dictionary, pred exec.Predicate, gen func(rng *rand.Rand, dst []byte)) {
	w := int(width)
	bits := 1 + w%31
	switch codec % 7 {
	case 0, 1, 2: // raw, bit-packed and FOR integers
		enc, lo := []schema.Encoding{schema.None, schema.BitPack, schema.FOR}[codec%7], int32(0)
		if enc == schema.None {
			bits, lo = 0, -int32(w)*1000
		}
		if enc == schema.FOR {
			bits, lo = min(bits, 30), int32(w)*977-50_000 // lo+span stays an int32
		}
		span := int64(1) << min(bits, 31)
		if bits == 0 {
			span = 1 << 20
		}
		attr = schema.Attribute{Name: "P", Type: schema.IntType, Enc: enc, Bits: bits}
		pred = exec.IntPred(1, exec.Lt, lo+int32(span/2))
		gen = func(rng *rand.Rand, dst []byte) { putVal(dst, 0, lo+int32(rng.Int63n(span))) }
	case 3: // FOR-delta: non-decreasing, steps that fit the code
		next := int32(w)
		attr = schema.Attribute{Name: "P", Type: schema.IntType, Enc: schema.FORDelta, Bits: 2 + w%15}
		pred = exec.IntPred(1, exec.Lt, next+fuzzAttachRows*3/4)
		gen = func(rng *rand.Rand, dst []byte) {
			putVal(dst, 0, next)
			next += int32(rng.Intn(4))
		}
	default: // raw, byte-aligned packed and dictionary text
		size := 1 + w%12
		attr = schema.Attribute{Name: "P", Type: schema.TextType(size)}
		alphabet := payloadAlphabet(size)
		switch codec % 7 {
		case 5:
			attr.Enc, attr.Bits = schema.BitPack, 8*(1+w%min(size, 8))
			for _, v := range alphabet {
				for j := attr.Bits / 8; j < size; j++ {
					v[j] = ' '
				}
			}
		case 6:
			attr.Enc, attr.Bits = schema.Dict, 2+w%3
			dict = compress.NewDictionary(size)
			for _, v := range alphabet {
				dict.Add(v)
			}
		}
		pred = exec.Predicate{Attr: 1, Op: exec.Eq, Text: alphabet[0]}
		gen = func(rng *rand.Rand, dst []byte) { copy(dst, alphabet[rng.Intn(2)*rng.Intn(4)]) }
	}
	return attr, dict, pred, gen
}

// FuzzColumnAttach drives the payload (attach) path with an arbitrary
// payload codec and width, a row-qualification bitmask, a partition
// [start, end) and a keep set. The vectorized scan, the Scalar scan and
// the pure-Go reference must agree byte for byte, or the two scans must
// fail with the same error class. The seed corpus under
// testdata/fuzz/FuzzColumnAttach replays in every test run.
func FuzzColumnAttach(f *testing.F) {
	f.Fuzz(func(t *testing.T, codec, width uint8, maskSeed int64, density uint8, start, end uint16, keepSeed int64, flags uint8) {
		attr, dict, inner, gen := fuzzPayload(codec, width)
		sch, err := schema.New("FUZZ", []schema.Attribute{
			{Name: "D", Type: schema.IntType},
			attr,
			{Name: "TAG", Type: schema.IntType},
		})
		if err != nil {
			t.Fatal(err)
		}
		var dicts map[int]*compress.Dictionary
		if dict != nil {
			dicts = map[int]*compress.Dictionary{1: dict}
		}
		mask := rand.New(rand.NewSource(maskSeed))
		size := attr.Type.Size
		d := buildDiffTableRows(t, sch, dicts, fuzzAttachRows, func(i int, rng *rand.Rand, tuple []byte) {
			if mask.Intn(256) < int(density) {
				putVal(tuple, 0, 1)
			}
			gen(rng, tuple[4:4+size])
			putVal(tuple, 4+size, int32(i))
		})
		preds := []exec.Predicate{exec.IntPred(0, exec.Eq, 1)}
		if flags&1 != 0 {
			preds = append(preds, inner)
		}
		proj := []int{2, 1}
		lo, hi := int64(0), int64(0)
		if flags&2 != 0 {
			lo = int64(start) % fuzzAttachRows
			hi = lo + 1 + int64(end)%(fuzzAttachRows-lo)
		}
		var keep []RowRange
		if flags&4 != 0 {
			k := rand.New(rand.NewSource(keepSeed))
			keep = []RowRange{}
			for at := int64(k.Intn(300)); at < fuzzAttachRows; at += int64(1 + k.Intn(400)) {
				next := min(at+int64(1+k.Intn(400)), fuzzAttachRows)
				keep = append(keep, RowRange{Lo: at, Hi: next})
				at = next
			}
		}

		vec, _, vecErr := d.run(colRun{preds: preds, proj: proj, start: lo, end: hi})
		scalar, _, scalarErr := d.run(colRun{preds: preds, proj: proj, scalar: true, start: lo, end: hi})
		if vecErr != nil || scalarErr != nil {
			if vecErr == nil || scalarErr == nil || fault.Classify(vecErr) != fault.Classify(scalarErr) {
				t.Fatalf("vectorized err %v, scalar err %v", vecErr, scalarErr)
			}
			return
		}
		want := d.reference(t, preds, proj, lo, hi)
		if !bytes.Equal(scalar, want) || !bytes.Equal(vec, want) {
			t.Fatalf("scalar %d / vectorized %d / reference %d bytes differ", len(scalar), len(vec), len(want))
		}
		if keep != nil {
			got, _, err := d.run(colRun{preds: preds, proj: proj, start: lo, end: hi, keep: keep})
			if err != nil {
				t.Fatal(err)
			}
			if want := d.referenceKeep(t, preds, proj, lo, hi, keep); !bytes.Equal(got, want) {
				t.Fatalf("keep scan %d bytes, reference %d", len(got), len(want))
			}
		}
	})
}
