package readopt

import (
	"io"

	"github.com/readoptdb/readopt/internal/harness"
)

// Reproduction regenerates the paper's evaluation — every figure and
// table — on a simulated version of its 2006 testbed (one 3.2GHz Pentium
// 4 over a three-disk, 180MB/s software RAID). Real scans of real (scaled
// down) tables supply the CPU-work measurements; a discrete-event replay
// at the paper's 60M-tuple scale supplies the elapsed times.
type Reproduction struct {
	h *harness.Harness
}

// ReproductionOptions tune the harness.
type ReproductionOptions struct {
	// DataDir caches the measure-phase tables between runs; empty uses a
	// temporary directory.
	DataDir string
	// MeasureTuples is the scale of the real tables the engine scans
	// during measurement (default 200k).
	MeasureTuples int64
}

// NewReproduction prepares a reproduction harness with the paper's
// configuration.
func NewReproduction(opts ReproductionOptions) (*Reproduction, error) {
	p := harness.DefaultParams()
	if opts.DataDir != "" {
		p.DataDir = opts.DataDir
	}
	if opts.MeasureTuples > 0 {
		p.MeasureTuples = opts.MeasureTuples
	}
	h, err := harness.New(p)
	if err != nil {
		return nil, err
	}
	return &Reproduction{h: h}, nil
}

// FigureIDs lists the reproducible experiments in paper order.
func FigureIDs() []string { return harness.ExperimentIDs() }

// WriteFigure regenerates one experiment and renders it to w. Valid ids
// are those of FigureIDs.
func (r *Reproduction) WriteFigure(w io.Writer, id string) error {
	return r.h.WriteExperiment(w, id)
}

// WriteAll regenerates every experiment in paper order.
func (r *Reproduction) WriteAll(w io.Writer) error { return r.h.WriteAll(w) }
