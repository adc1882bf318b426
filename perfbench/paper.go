package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"maps"
	"math"
	"strconv"
	"strings"
	"time"

	"dlm"
)

// paperN, paperT3Sizes and paperScenario are the dlmbench defaults, so
// seed 1 reproduces results/ byte for byte.
const paperN = 2000

var paperT3Sizes = []int{1000, 4000, 16000}

// paperArtifacts names the outputs in the order the job produces them.
var paperArtifacts = []string{"fig4.csv", "fig5.csv", "fig6.csv", "fig7.csv", "fig8.csv", "table3.txt"}

// digest stands in for an artifact's bytes, so that no run holds its
// outputs while the live heap is read.
type digest [sha256.Size]byte

// paperRun is one execution of the paper-repro job.
type paperRun struct {
	setupSec, windowSec, wallSec float64
	outputs                      map[string]digest // each artifact
	axes                         map[string]digest // each figure's time axis
	artifactSec                  map[string]float64
	peerUnits                    float64
	ratioErrPct, paoNLCOPct      float64
	rt                           counters // allocation and GC over the artifact calls
	peakLiveBytes                uint64   // largest live heap after an artifact call
	table3Rows                   []dlm.Table3Row
	tr                           *tracer
}

// paperScenario is the dlmbench figure scenario.
func paperScenario(seed int64) dlm.Scenario {
	sc := dlm.Scaled(paperN)
	sc.Seed = seed
	sc.Duration = dlm.SettledWindowEnd
	sc.Warmup = 200
	sc.SampleEvery = 10
	return sc
}

// paperFigure is one figure call of the job.
type paperFigure struct {
	id   spanID
	name string
	sc   dlm.Scenario
	f    func(dlm.Scenario) (*dlm.FigureResult, error)
	runs int // simulation runs the call makes
}

// paperSetup is everything the job does before its first artifact call:
// configuring the scheduler and building the scenarios.
func paperSetup(seed int64, workers int) (dlm.Scenario, []paperFigure) {
	dlm.SetWorkers(workers)
	dlm.SetShards(workers)
	sc := paperScenario(seed)
	qsc := sc
	qsc.QueryRate = 5
	return sc, []paperFigure{
		{spanFig4, "fig4.csv", sc, dlm.Figure4, 1},
		{spanFig5, "fig5.csv", sc, dlm.Figure5, 1},
		{spanFig6, "fig6.csv", sc, dlm.Figure6, 1},
		{spanFig7, "fig7.csv", qsc, dlm.Figure7, 2},
		{spanFig8, "fig8.csv", sc, dlm.Figure8, 2},
	}
}

// timePaperSetup returns the host seconds of one paperSetup call. The call
// takes about a microsecond, so it is timed as the mean of a batch of
// calls, which keeps the clock's own cost out of the figure.
func timePaperSetup(seed int64, workers int) float64 {
	const batch = 100
	start := time.Now()
	for i := 0; i < batch; i++ {
		paperSetup(seed, workers)
	}
	return time.Since(start).Seconds() / batch
}

// runPaper runs fig4–fig8 and Table 3 through the public dlm API. The
// window is the sum of the artifact calls; after each, a forced and
// untimed collection reads the live heap, while the job holds only that
// call's result.
func runPaper(seed int64, workers int, traced bool) (*paperRun, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	r := &paperRun{outputs: map[string]digest{}, axes: map[string]digest{},
		artifactSec: map[string]float64{}, tr: tr}
	start := time.Now()
	sc, figs := paperSetup(seed, workers)
	r.setupSec = time.Since(start).Seconds()

	var m meter
	artifact := func(id spanID, name string, call func() error) error {
		m.start()
		t0 := time.Now()
		tr.begin(id)
		err := call()
		tr.end()
		d := time.Since(t0).Seconds()
		m.stop()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r.artifactSec[name] = d
		r.windowSec += d
		r.peakLiveBytes = max(r.peakLiveBytes, liveAfterGC())
		return nil
	}
	for _, f := range figs {
		var res *dlm.FigureResult
		err := artifact(f.id, f.name, func() (err error) {
			res, err = f.f(f.sc)
			return err
		})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := dlm.WriteFigureCSV(res, &buf); err != nil {
			return nil, fmt.Errorf("%s: %w", f.name, err)
		}
		r.outputs[f.name] = sha256.Sum256(buf.Bytes())
		r.axes[f.name] = sha256.Sum256([]byte(timeAxis(buf.Bytes())))
		r.peerUnits += float64(f.runs) * float64(f.sc.N) * f.sc.Duration
		if f.id == spanFig6 {
			r.ratioErrPct = fig6RatioErrPct(res, sc.Eta, sc.Warmup)
		}
	}
	var rows []dlm.Table3Row
	err := artifact(spanTable3, "table3.txt", func() (err error) {
		rows, err = dlm.Table3(paperT3Sizes, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.outputs["table3.txt"] = sha256.Sum256([]byte(dlm.FormatTable3(rows)))
	r.table3Rows = rows
	// Table 3 runs three trials per size over 900 simulated units.
	for _, n := range paperT3Sizes {
		r.peerUnits += 3 * float64(n) * 900
	}
	r.wallSec = r.setupSec + r.windowSec
	r.rt = m.sum
	for _, row := range rows {
		r.paoNLCOPct += row.PAOOverNLCO / float64(len(rows))
	}
	return r, nil
}

// fig6RatioErrPct is the mean |n_l/n_s − η| / η, in percent, over
// Figure 6's samples from the warm-up on.
func fig6RatioErrPct(f *dlm.FigureResult, eta, from float64) float64 {
	supers, leaves := f.Series[0].Points(), f.Series[1].Points()
	var ratios []float64
	for i, p := range supers {
		if p.T >= from && p.V > 0 {
			ratios = append(ratios, leaves[i].V/p.V)
		}
	}
	return ratioErrPct(ratios, eta)
}

// timeAxis returns the first CSV column of an artifact.
func timeAxis(csv []byte) string {
	var b strings.Builder
	for _, line := range strings.Split(string(csv), "\n") {
		t, _, _ := strings.Cut(line, ",")
		b.WriteString(t)
		b.WriteByte('\n')
	}
	return b.String()
}

// paperChecks returns the checks of one run: byte equality with the
// committed artifacts on the reference seed, and on every seed the
// structural ones (figures 4–6 share one run, as do 7–8, so their time
// axes must agree; Table 3 has one populated row per size).
func paperChecks(r *paperRun, seed int64, ref map[string]digest) []check {
	var cs []check
	if seed == referenceSeed {
		for _, name := range paperArtifacts {
			cs = append(cs, check{"golden " + name, r.outputs[name] == ref[name]})
		}
	}
	ax := func(name string) digest { return r.axes[name] }
	cs = append(cs,
		check{"fig4-6 share a time axis", ax("fig4.csv") == ax("fig5.csv") && ax("fig5.csv") == ax("fig6.csv")},
		check{"fig7-8 share a time axis", ax("fig7.csv") == ax("fig8.csv")})
	ok := len(r.table3Rows) == len(paperT3Sizes)
	for i, row := range r.table3Rows {
		ok = ok && i < len(paperT3Sizes) && row.NetworkSize == paperT3Sizes[i] &&
			row.NewLeafPeers > 0 && !math.IsNaN(row.PAOOverNLCO)
	}
	cs = append(cs, check{"table3 rows " + strconv.Itoa(len(r.table3Rows)), ok})
	return cs
}

// sameOutputs reports whether two paper-repro runs produced identical
// artifacts.
func sameOutputs(a, b *paperRun) bool {
	return maps.Equal(a.outputs, b.outputs)
}
