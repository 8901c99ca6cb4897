package exp

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/gold"
	"repro/internal/ofdm"
	"repro/internal/parallel"
)

// Table1 prints the ROP control-symbol parameters next to regular WiFi, as
// paper Table 1; the values are asserted against ofdm.DefaultLayout.
func Table1(w io.Writer) {
	l := ofdm.DefaultLayout()
	fmt.Fprintln(w, "Table 1: OFDM symbol parameters (WiFi vs ROP)")
	hline(w, 52)
	fmt.Fprintf(w, "%-28s %8s %8s\n", "parameter", "WiFi", "ROP")
	fmt.Fprintf(w, "%-28s %8d %8d\n", "number of subcarriers", 64, l.N)
	fmt.Fprintf(w, "%-28s %8s %8d\n", "subcarriers per subchannel", "-", l.PerSub)
	fmt.Fprintf(w, "%-28s %8s %8d\n", "guard subcarriers", "-", l.Guard)
	fmt.Fprintf(w, "%-28s %8s %8d\n", "number of subchannels", "-", l.NumSubchannels())
	fmt.Fprintf(w, "%-28s %7.1fµs %6.1fµs\n", "CP duration", 0.8, float64(l.CPLen)/ofdm.SampleRate*1e6)
	fmt.Fprintf(w, "%-28s %7.0fµs %6.0fµs\n", "symbol duration", 4.0, l.SymbolDurationUs())
}

// Fig5Result carries the decoded spectra of the three Fig 5 sub-figures.
type Fig5Result struct {
	// EqualNoGuard: two adjacent subchannels, similar RSS, no guard (5a).
	EqualNoGuard ofdm.PollResult
	// StrongNoGuard: 30 dB difference, no guard (5b).
	StrongNoGuard ofdm.PollResult
	// StrongGuarded: 30 dB difference, 3 guard subcarriers (5c).
	StrongGuarded ofdm.PollResult
	// Bins lists the FFT bins of the two subchannels per variant, in the
	// same order, for plotting.
	BinsNoGuard, BinsGuarded [][]int
}

// Fig5 reproduces the three received-spectrum snapshots of paper Fig 5. The
// strong client is poorly tuned (1.2 kHz residual CFO) as in the USRP
// measurement.
func Fig5(seed int64) Fig5Result {
	rng := rand.New(rand.NewSource(seed))
	var res Fig5Result
	noGuard := ofdm.DefaultLayout()
	noGuard.Guard = 0
	guarded := ofdm.DefaultLayout()

	clients := func(diff float64, cfo float64) []ofdm.Client {
		return []ofdm.Client{
			{Subchannel: 0, GainDB: diff, CFOHz: cfo},
			{Subchannel: 1, GainDB: 0, CFOHz: -cfo / 3},
		}
	}
	res.EqualNoGuard = ofdm.NewPoller(noGuard).Poll(clients(0, 900), []int{0b111111, 0b011111}, 1e-3, rng)
	res.StrongNoGuard = ofdm.NewPoller(noGuard).Poll(clients(30, 1200), []int{0b111111, 0b111111}, 1e-3, rng)
	res.StrongGuarded = ofdm.NewPoller(guarded).Poll(clients(30, 1200), []int{0b111111, 0b111111}, 1e-3, rng)
	res.BinsNoGuard = [][]int{noGuard.SubcarrierIndices(0), noGuard.SubcarrierIndices(1)}
	res.BinsGuarded = [][]int{guarded.SubcarrierIndices(0), guarded.SubcarrierIndices(1)}
	return res
}

// Print renders the three spectra around the two subchannels.
func (r Fig5Result) Print(w io.Writer) {
	show := func(name string, pr ofdm.PollResult, bins [][]int) {
		fmt.Fprintf(w, "Fig 5 %s: decode ok = %v\n", name, pr.OK)
		lo, hi := bins[0][0], bins[1][len(bins[1])-1]+2
		fmt.Fprintf(w, "  bin: ")
		for b := lo; b <= hi; b++ {
			fmt.Fprintf(w, "%7d", b)
		}
		fmt.Fprintf(w, "\n  |Y| : ")
		for b := lo; b <= hi; b++ {
			fmt.Fprintf(w, "%7.3f", pr.Spectrum[b])
		}
		fmt.Fprintln(w)
	}
	show("(a) equal RSS, no guard", r.EqualNoGuard, r.BinsNoGuard)
	show("(b) 30 dB diff, no guard", r.StrongNoGuard, r.BinsNoGuard)
	show("(c) 30 dB diff, 3 guards", r.StrongGuarded, r.BinsGuarded)
}

// Fig6Result maps guard-subcarrier count to (RSS difference, decode ratio)
// series.
type Fig6Result struct {
	DiffsDB []float64
	// Ratio[g][i] is the decode ratio with g guard subcarriers at
	// DiffsDB[i].
	Ratio map[int][]float64
}

// Fig6 sweeps the guard-subcarrier count against the RSS difference
// between adjacent subchannels (paper Fig 6).
func Fig6(o Options) Fig6Result {
	o = o.withDefaults()
	res := Fig6Result{
		DiffsDB: []float64{15, 20, 25, 30, 34, 38, 40, 44},
		Ratio:   map[int][]float64{},
	}
	// One task per (guard count, RSS diff) grid point, each with its own
	// seed derived from the grid index.
	const guards = 5
	nd := len(res.DiffsDB)
	ratios := parallel.Map(o.Workers, guards*nd, func(i int) float64 {
		l := ofdm.DefaultLayout()
		l.Guard = i / nd
		rng := rand.New(rand.NewSource(pointSeed(o, i)))
		return ofdm.DecodeRatio(l, res.DiffsDB[i%nd], ofdm.DefaultCFOMaxHz, 1e-3, o.Trials, rng)
	})
	for g := 0; g < guards; g++ {
		res.Ratio[g] = ratios[g*nd : (g+1)*nd]
	}
	return res
}

// Print renders the Fig 6 curves as a table.
func (r Fig6Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 6: correct decoding ratio (%) vs RSS difference, per guard count")
	hline(w, 64)
	fmt.Fprintf(w, "%-10s", "diff (dB)")
	for _, d := range r.DiffsDB {
		fmt.Fprintf(w, "%7.0f", d)
	}
	fmt.Fprintln(w)
	for g := 0; g <= 4; g++ {
		fmt.Fprintf(w, "guards=%-3d", g)
		for _, v := range r.Ratio[g] {
			fmt.Fprintf(w, "%7.0f", v*100)
		}
		fmt.Fprintln(w)
	}
}

// SNRFloorResult is the §3.1 SNR experiment.
type SNRFloorResult struct {
	SNRdB []float64
	Ratio []float64
}

// SNRFloor measures single-client decode reliability against wideband SNR.
func SNRFloor(o Options) SNRFloorResult {
	o = o.withDefaults()
	res := SNRFloorResult{SNRdB: []float64{-16, -12, -8, -6, -4, 0, 4, 8}}
	res.Ratio = parallel.Map(o.Workers, len(res.SNRdB), func(i int) float64 {
		rng := rand.New(rand.NewSource(pointSeed(o, i)))
		return ofdm.SNRFloor(ofdm.DefaultLayout(), res.SNRdB[i], o.Trials, rng)
	})
	return res
}

// Print renders the SNR floor sweep.
func (r SNRFloorResult) Print(w io.Writer) {
	fmt.Fprintln(w, "§3.1: ROP symbol decode ratio vs wideband SNR (reliable ≥ 4 dB)")
	hline(w, 60)
	fmt.Fprintf(w, "%-10s", "SNR (dB)")
	for _, s := range r.SNRdB {
		fmt.Fprintf(w, "%7.0f", s)
	}
	fmt.Fprintf(w, "\n%-10s", "ratio (%)")
	for _, v := range r.Ratio {
		fmt.Fprintf(w, "%7.0f", v*100)
	}
	fmt.Fprintln(w)
}

// Fig9Result holds detection-ratio curves per sender setup.
type Fig9Result struct {
	Combined []int
	// Detected[i][j]: setup i, Combined[j].
	Setups   []gold.Setup
	Detected [][]float64
	// MaxFP is the worst false-positive ratio within DOMINO's operating
	// envelope (inbound ≤ 2 redundant senders × ≤ 4 combined signatures =
	// at most 8 concurrent signature instances); MaxFPAll covers every
	// measured point, including the 3-sender/7-combined extremes beyond
	// what the converter ever produces.
	MaxFP    float64
	MaxFPAll float64
}

// Fig9 reproduces the signature-detection experiment: five transmitter
// setups, combined signature counts 1..7, 1000 chip-level trials per point
// in the paper.
func Fig9(o Options) (Fig9Result, error) {
	o = o.withDefaults()
	set, err := gold.NewSet(7)
	if err != nil {
		return Fig9Result{}, fmt.Errorf("exp: Fig9 gold set: %w", err)
	}
	res := Fig9Result{Combined: []int{1, 2, 3, 4, 5, 6, 7}, Setups: gold.Fig9Setups()}
	// One task per (setup, combined) grid point, seeded by grid index; n/a
	// points (fewer signatures than senders) stay at -1. The false-positive
	// maxima are reduced serially from the ordered grid below.
	nc := len(res.Combined)
	points := parallel.Map(o.Workers, len(res.Setups)*nc, func(i int) gold.DetectionResult {
		setup := res.Setups[i/nc]
		c := res.Combined[i%nc]
		if c < setup.Senders && setup.Mode == gold.DifferentSignatures {
			return gold.DetectionResult{Detected: -1}
		}
		return gold.DetectionTrialParallel(set, setup, c, o.Trials, 10, pointSeed(o, i), 1)
	})
	for si, setup := range res.Setups {
		row := make([]float64, 0, nc)
		for ci, c := range res.Combined {
			r := points[si*nc+ci]
			row = append(row, r.Detected)
			if r.Detected < 0 {
				continue
			}
			instances := c
			if setup.Mode == gold.SameSignatures {
				instances = c * setup.Senders
			}
			if instances <= 8 && r.FalsePositive > res.MaxFP {
				res.MaxFP = r.FalsePositive
			}
			if r.FalsePositive > res.MaxFPAll {
				res.MaxFPAll = r.FalsePositive
			}
		}
		res.Detected = append(res.Detected, row)
	}
	return res, nil
}

// Print renders the Fig 9 table.
func (r Fig9Result) Print(w io.Writer) {
	fmt.Fprintln(w, "Fig 9: signature detection ratio (%) vs combined signatures")
	hline(w, 76)
	fmt.Fprintf(w, "%-28s", "setup")
	for _, c := range r.Combined {
		fmt.Fprintf(w, "%6d", c)
	}
	fmt.Fprintln(w)
	names := []string{
		"1 sender",
		"2 senders, same sigs",
		"2 senders, diff sigs",
		"3 senders, same sigs",
		"3 senders, diff sigs",
	}
	for i, row := range r.Detected {
		fmt.Fprintf(w, "%-28s", names[i])
		for _, v := range row {
			if v < 0 {
				fmt.Fprintf(w, "%6s", "-")
			} else {
				fmt.Fprintf(w, "%6.0f", v*100)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "max false-positive ratio (operating envelope): %.2f%% (paper: below 1%%)\n", r.MaxFP*100)
	fmt.Fprintf(w, "max false-positive ratio (all setups): %.2f%%\n", r.MaxFPAll*100)
}
