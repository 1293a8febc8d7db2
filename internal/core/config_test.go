package core

import (
	"strings"
	"testing"

	"camouflage/internal/shaper"
)

// TestConfigValidate drives Config.Validate through every rejection
// branch: each case mutates the known-good default configuration in one
// way and names the substring the resulting error must carry.
func TestConfigValidate(t *testing.T) {
	valid := func() Config { return DefaultConfig() }
	shaperCfg := DefaultShaperConfig()

	cases := []struct {
		name    string
		mutate  func(*Config)
		wantErr string // "" means the config must validate
	}{
		{"default", func(c *Config) {}, ""},
		{"zero cores", func(c *Config) { c.Cores = 0 }, "Cores"},
		{"negative cores", func(c *Config) { c.Cores = -3 }, "Cores"},
		{"bad cache", func(c *Config) { c.CPU.Cache.Ways = 0 }, "Ways"},
		{"bad timing", func(c *Config) { c.Timing.TRCD = 0 }, "tRCD"},
		{"bad geometry", func(c *Config) { c.Geometry.BanksPerRank = 0 }, "BanksPerRank"},
		{"reqc without shaper config", func(c *Config) { c.Scheme = ReqC }, "request shaper config"},
		{"cs without shaper config", func(c *Config) { c.Scheme = CS }, "request shaper config"},
		{"respc without shaper config", func(c *Config) { c.Scheme = RespC }, "response shaper config"},
		{"bdc without resp config", func(c *Config) {
			c.Scheme = BDC
			sc := shaperCfg.Clone()
			c.ReqShaperCfg = &sc
		}, "response shaper config"},
		{"tp without turn length", func(c *Config) {
			c.Scheme = TP
			c.TPTurnLength = 0
		}, "TPTurnLength"},
		// The TP dead time is 200 cycles: a 199-cycle turn can never
		// issue, a 200-cycle turn issues at its first cycle.
		{"tp turn below dead time", func(c *Config) {
			c.Scheme = TP
			c.TPTurnLength = 199
		}, "dead time"},
		{"tp turn equal to dead time", func(c *Config) {
			c.Scheme = TP
			c.TPTurnLength = 200
		}, ""},
		{"tp turn above dead time", func(c *Config) {
			c.Scheme = TP
			c.TPTurnLength = 201
		}, ""},
		{"invalid req shaper config", func(c *Config) {
			sc := shaperCfg.Clone()
			sc.Window = 0
			c.ReqShaperCfg = &sc
		}, "window"},
		{"invalid resp shaper config", func(c *Config) {
			sc := shaperCfg.Clone()
			sc.Credits = []int{1} // wrong length for the binning
			c.RespShaperCfg = &sc
		}, "credit"},
		{"per-core req config for bad core", func(c *Config) {
			c.Scheme = ReqC
			c.PerCoreReqCfg = map[int]shaper.Config{7: shaperCfg.Clone()}
		}, "invalid core 7"},
		{"per-core resp config for bad core", func(c *Config) {
			c.Scheme = RespC
			c.PerCoreRespCfg = map[int]shaper.Config{-1: shaperCfg.Clone()}
		}, "invalid core -1"},
		{"per-core req config invalid", func(c *Config) {
			c.Scheme = ReqC
			sc := shaperCfg.Clone()
			sc.Credits = make([]int, sc.Binning.N()) // all-zero budget
			c.PerCoreReqCfg = map[int]shaper.Config{1: sc}
		}, "no credits"},
		{"reqc via per-core configs", func(c *Config) {
			c.Scheme = ReqC
			c.PerCoreReqCfg = map[int]shaper.Config{1: shaperCfg.Clone()}
		}, ""},
		{"tp with turn length", func(c *Config) { c.Scheme = TP }, ""},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mutate(&cfg)
			err := cfg.Validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("Validate() = nil, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate() = %q, want error containing %q", err, tc.wantErr)
			}
		})
	}
}
