package compress

import (
	"strings"
	"testing"
)

func TestParseValidSpecs(t *testing.T) {
	tests := []struct {
		spec     string
		wantName string
	}{
		{"uniform:3", "Uniform(3)"},
		{"radial:25", "Radial(25)"},
		{"angular:0.3", "Angular(0.3)"},
		{"dr:40", "DeadReckoning(40)"},
		{"ndp:30", "NDP"},
		{"ndphull:30", "NDP-hull"},
		{"nopw:30", "NOPW"},
		{"bopw:30", "BOPW"},
		{"tdtr:30", "TD-TR"},
		{"opwtr:30", "OPW-TR"},
		{"opwsp:30:5", "OPW-SP(5m/s)"},
		{"tdsp:30:5", "TD-SP(5m/s)"},
		{"bu:30", "BU"},
		{"butr:30", "BU-TR"},
		{"sw:30:20", "SW(20)"},
		{"swtr:30:20", "SW-TR(20)"},
		{"ndpn:40", "NDP-N(40)"},
		{"tdtrn:40", "TD-TR-N(40)"},
		{"squish:40", "SQUISH(40)"},
		{"vw:50", "VW"},
		{"operb:30", "OPERB"},
		{"cisedw:30", "CISED-W"},
		{"opwtr:30:0", "OPW-TR"},        // window cap 0 = unbounded
		{"opwtr:30:256", "OPW-TR/W256"}, // capped: the online engine's output
		{"opwsp:30:5:16", "OPW-SP(5m/s)/W16"},
		{"TDTR:30", "TD-TR"},       // case-insensitive
		{" opwtr : 30 ", "OPW-TR"}, // whitespace-tolerant
	}
	for _, tc := range tests {
		alg, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		if alg.Name() != tc.wantName {
			t.Errorf("Parse(%q).Name() = %q, want %q", tc.spec, alg.Name(), tc.wantName)
		}
	}
}

func TestParseInvalidSpecs(t *testing.T) {
	bad := []string{
		"",
		"unknown:5",
		"tdtr",        // missing threshold
		"tdtr:abc",    // non-numeric
		"tdtr:-5",     // negative
		"tdtr:30:5",   // too many args
		"opwsp:30",    // missing speed
		"opwsp:30:0",  // zero speed
		"opwsp:30:-1", // negative speed
		"uniform:0",   // stride < 1
		"uniform:2.5", // non-integer stride
		"sw:30",       // missing window
		"sw:30:2",     // window < 3
		"swtr:30:2.5", // non-integer window
		"butr:-1",     // negative threshold
		"squish:1",    // budget < 2
		"tdtrn:10.5",  // non-integer budget
		"bopw:30:16",  // no online form, so no window cap
		"nopw:30:2",   // window cap < 3
		"opwtr:30:3.5",
		"tdtr:NaN", // non-finite arguments
		"opwtr:Inf",
		"dr:-Inf",
		"opwsp:30:NaN",
		"sw:+Inf:8",
		"opwtr:30:NaN",
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		} else if !strings.Contains(err.Error(), "compress:") {
			t.Errorf("Parse(%q) error %q lacks package prefix", spec, err)
		}
	}
}

// Every spec produced by Parse must run end to end.
func TestParsedAlgorithmsRun(t *testing.T) {
	p := evenLine(30)
	for _, spec := range []string{
		"uniform:2", "radial:15", "angular:0.2", "dr:10",
		"ndp:10", "ndphull:10", "nopw:10", "bopw:10",
		"tdtr:10", "opwtr:10", "opwsp:10:5", "tdsp:10:5",
		"bu:10", "butr:10", "sw:10:8", "swtr:10:8",
	} {
		alg, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		a := alg.Compress(p)
		if err := a.Validate(); err != nil {
			t.Errorf("%s output invalid: %v", alg.Name(), err)
		}
	}
}

// The registry is one consistent table: unique lower-case keywords, a weak
// flag that agrees with the algorithm it builds, and ParseOnline accepting
// exactly the entries with an online form.
func TestRegistryConsistent(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range Registry() {
		if s.Name != strings.ToLower(s.Name) || seen[s.Name] {
			t.Errorf("keyword %q is not lower case or not unique", s.Name)
		}
		seen[s.Name] = true
		spec := s.Name
		for _, k := range s.Args {
			spec += map[ArgKind]string{Tolerance: ":10", Speed: ":5", Stride: ":2", Budget: ":8", Window: ":8", WindowCap: ":0"}[k]
		}
		alg, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if IsWeak(alg) != s.Weak {
			t.Errorf("%s: registry weak=%v, algorithm weak=%v", s.Name, s.Weak, IsWeak(alg))
		}
		if _, err := ParseOnline(spec); (err == nil) != (s.Online != nil) {
			t.Errorf("ParseOnline(%q): %v, entry online=%v", spec, err, s.Online != nil)
		}
		if got, ok := Lookup(strings.ToUpper(spec)); !ok || got.Name != s.Name {
			t.Errorf("Lookup(%q) = %q, %v", spec, got.Name, ok)
		}
	}
	if _, err := ParseOnline(DefaultOnline); err != nil {
		t.Errorf("DefaultOnline %q: %v", DefaultOnline, err)
	}
}
