package harness

import (
	"context"
	"fmt"

	"camouflage/internal/attack"
	"camouflage/internal/shaper"
	"camouflage/internal/sim"
	"camouflage/internal/stats"
	"camouflage/internal/trace"
)

// CovertPulse is the per-bit pulse duration of the Algorithm 1 sender.
const CovertPulse sim.Cycle = 4096

// CovertDefenseConfig returns the ReqC configuration used against the
// covert channel: a decreasing staircase over the fast bins with a
// replenishment window much shorter than the sender's pulse. A short
// window matters (§IV-B4): unused credits turn into fake traffic one
// window later, so the window bounds how long an idle-to-busy transition
// can remain visible.
func CovertDefenseConfig() shaper.Config {
	b := stats.DefaultBinning()
	credits := []int{10, 9, 8, 7, 6, 5, 4, 0, 0, 0}
	return shaper.Config{
		Binning:      b,
		Credits:      credits,
		Window:       shaper.DefaultWindow,
		GenerateFake: true,
		Policy:       shaper.PolicyExact,
	}
}

// CovertChannelResult reproduces Figures 14/15 and the §IV-G covert
// channel evaluation for one key.
type CovertChannelResult struct {
	Key    uint64
	KeyLen int
	// SentBits is the transmitted bit vector (LSB first).
	SentBits []int
	// BeforeCounts and AfterCounts are per-pulse bus transaction counts
	// without and with Request Camouflage — the traffic-over-time series
	// of the figures.
	BeforeCounts []int
	AfterCounts  []int
	// BeforeDecode and AfterDecode are the bus-monitoring receiver's
	// decode attempts.
	BeforeDecode attack.DecodeResult
	AfterDecode  attack.DecodeResult
}

// CovertChannel runs the Algorithm 1 sender (repeating keyLen bits of key,
// LSB first) on a protected core, first unshaped and then under Request
// Camouflage with fake traffic, and decodes the key from the bus traffic
// in both runs.
func CovertChannel(ctx context.Context, key uint64, keyLen int, seed uint64) (*CovertChannelResult, error) {
	res := &CovertChannelResult{Key: key, KeyLen: keyLen}
	cycles := CovertPulse * sim.Cycle(keyLen+2)

	run := func(shaped bool) ([]int, error) {
		cfg := seeded(1, seed)
		if shaped {
			cfg = withReqC(cfg, CovertDefenseConfig())
		}
		sender := trace.NewCovertSender(key, keyLen, CovertPulse, 2, true)
		res.SentBits = sender.Bits()
		r, err := Run{Config: cfg, Sources: []trace.Source{sender}, Cycles: cycles, Bus: true}.Do(ctx)
		if err != nil {
			return nil, err
		}
		return r.Bus.WindowCounts(0, CovertPulse, keyLen), nil
	}

	var err error
	if res.BeforeCounts, err = run(false); err != nil {
		return nil, err
	}
	if res.AfterCounts, err = run(true); err != nil {
		return nil, err
	}
	res.BeforeDecode = attack.DecodeCovertChannel(res.BeforeCounts, res.SentBits)
	res.AfterDecode = attack.DecodeCovertChannel(res.AfterCounts, res.SentBits)
	return res, nil
}

// Table renders the result, with sparklines standing in for the paper's
// traffic-over-time plots.
func (r *CovertChannelResult) Table() *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figures 14/15 + §IV-G — covert channel, key 0x%X (%d bits, pulse %d cycles)", r.Key, r.KeyLen, CovertPulse),
		Columns: []string{"stage", "traffic per pulse", "decoded BER"},
	}
	t.AddRow("sent bits", bitString(r.SentBits), "-")
	t.AddRow("before Camouflage", Sparkline(r.BeforeCounts), f2(r.BeforeDecode.BER))
	t.AddRow("decoded (before)", bitString(r.BeforeDecode.Bits), "")
	t.AddRow("after Camouflage", Sparkline(r.AfterCounts), f2(r.AfterDecode.BER))
	t.AddRow("decoded (after)", bitString(r.AfterDecode.Bits), "")
	return t
}

func bitString(bits []int) string {
	out := make([]byte, len(bits))
	for i, b := range bits {
		out[i] = byte('0' + b)
	}
	return string(out)
}
