package main

import (
	"reflect"
	"strings"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/gen"
)

// TestSettingsFlagsOptions pins the flag → library option mapping: what the
// flags resolve to, that the inproc and tcp transports resolve identical
// settings, and that zero values fail with the library's range error
// instead of silently becoming defaults.
func TestSettingsFlagsOptions(t *testing.T) {
	g := gen.WebCrawlLike(600, 20, 6, 0.4, 30, 1)
	def := settingsFlags{k: 4, pes: parhip.DefaultPEs, mode: "fast", class: "auto",
		eps: parhip.DefaultEps, seed: parhip.DefaultSeed}
	with := func(edit func(*settingsFlags)) settingsFlags {
		f := def
		edit(&f)
		return f
	}
	peers3 := []string{"a:1", "b:2", "c:3"}
	cases := []struct {
		name    string
		flags   settingsFlags
		auto    parhip.GraphClass
		want    core.Config // compared when wantErr is empty
		wantErr string
	}{
		{name: "defaults", flags: def, want: core.FastConfig(4, core.ClassSocial)},
		{name: "auto class follows the loaded graph", flags: def, auto: parhip.Mesh,
			want: core.FastConfig(4, core.ClassMesh)},
		{name: "explicit class beats auto", auto: parhip.Mesh,
			flags: with(func(f *settingsFlags) { f.class = "social" }),
			want:  core.FastConfig(4, core.ClassSocial)},
		{name: "eco eps seed",
			flags: with(func(f *settingsFlags) { f.mode, f.eps, f.seed = "eco", 0.1, 7 }),
			want: func() core.Config {
				c := core.EcoConfig(4, core.ClassSocial)
				c.Eps, c.Seed = 0.1, 7
				return c
			}()},
		{name: "minimal", flags: with(func(f *settingsFlags) { f.mode = "minimal" }),
			want: core.MinimalConfig(4, core.ClassSocial)},
		{name: "tcp ignores -pes", flags: with(func(f *settingsFlags) { f.pes, f.peers = 0, peers3 }),
			want: core.FastConfig(4, core.ClassSocial)},
		{name: "seed 0", flags: with(func(f *settingsFlags) { f.seed = 0 }), wantErr: "seed = 0"},
		{name: "eps 0", flags: with(func(f *settingsFlags) { f.eps = 0 }), wantErr: "eps = 0"},
		{name: "pes 0", flags: with(func(f *settingsFlags) { f.pes = 0 }), wantErr: "PEs = 0"},
		{name: "k 0", flags: with(func(f *settingsFlags) { f.k = 0 }), wantErr: "k = 0"},
		{name: "unknown mode", flags: with(func(f *settingsFlags) { f.mode = "turbo" }), wantErr: `unknown mode "turbo"`},
		{name: "unknown class", flags: with(func(f *settingsFlags) { f.class = "torus" }), wantErr: `unknown class "torus"`},
	}
	resolve := func(f settingsFlags, auto parhip.GraphClass) (core.Config, error) {
		opts, err := f.options(auto)
		if err != nil {
			return core.Config{}, err
		}
		p, err := parhip.New(g, opts...)
		if err != nil {
			return core.Config{}, err
		}
		return p.CoreConfig(), nil
	}
	for _, tc := range cases {
		got, err := resolve(tc.flags, tc.auto)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		// The session always resolves eps explicitly; the mode constructors
		// leave it zero for core to fill in.
		if tc.want.Eps == 0 {
			tc.want.Eps = parhip.DefaultEps
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: resolved %+v, want %+v", tc.name, got, tc.want)
		}
		// The same flags under the other transport resolve identically:
		// the world size is -pes in-process and the peer count over tcp,
		// and nothing else may depend on the transport.
		other := tc.flags
		if other.peers == nil {
			other.peers = peers3
		} else {
			other.pes, other.peers = len(other.peers), nil
		}
		if twin, err := resolve(other, tc.auto); err != nil || !reflect.DeepEqual(twin, got) {
			t.Errorf("%s: other transport resolved %+v (err %v), want %+v", tc.name, twin, err, got)
		}
	}
}
