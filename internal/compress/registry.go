package compress

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/trajectory"
)

// ArgKind is the type of one spec argument, which fixes its validation;
// every argument must also be finite.
type ArgKind int

const (
	Tolerance ArgKind = iota // error bound (m, rad or m²), ≥ 0
	Speed                    // speed-difference tolerance (m/s), > 0
	Stride                   // integer ≥ 1
	Budget                   // point budget, integer ≥ 2
	Window                   // sliding-window length, integer ≥ 3
	WindowCap                // optional opening-window cap: 0 (unbounded) or integer ≥ 3
)

// placeholders name each kind in a spec's grammar.
var placeholders = [...]string{Tolerance: "D", Speed: "V", Stride: "K", Budget: "N", Window: "W", WindowCap: "W"}

// check validates v as an argument of kind k.
func (k ArgKind) check(v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("must be finite")
	}
	//lint:allow floatcmp integrality check and zero sentinel on a parsed spec argument
	integer, zero := v == float64(int(v)), v == 0
	switch {
	case k == Tolerance && v < 0:
		return fmt.Errorf("negative threshold")
	case k == Speed && v <= 0:
		return fmt.Errorf("speed threshold must be positive")
	case k == Stride && (v < 1 || !integer):
		return fmt.Errorf("stride must be a positive integer")
	case k == Budget && (v < 2 || !integer):
		return fmt.Errorf("point budget must be an integer ≥ 2")
	case k == Window && (v < 3 || !integer):
		return fmt.Errorf("window must be an integer ≥ 3")
	case k == WindowCap && (!integer || (!zero && v < 3)):
		return fmt.Errorf("window cap must be 0 or an integer ≥ 3")
	}
	return nil
}

// Spec is one entry of the algorithm registry. A spec string is the
// case-insensitive keyword followed by its arguments, colon-separated
// ("opwsp:30:5").
type Spec struct {
	Name string    // lower-case keyword
	Args []ArgKind // positional; a trailing WindowCap is optional (0 when omitted)
	// Batch builds the batch algorithm from validated arguments.
	Batch func(args []float64) Algorithm
	// Online builds a fresh engine from validated arguments; nil when the
	// algorithm has no online form.
	Online func(args []float64) Engine
	// Weak marks algorithms that may synthesize points (WeakSimplifier).
	Weak bool
	// OnePass marks the one-pass error-bounded family (OPERB, CISED),
	// which decides every point on arrival in O(1).
	OnePass bool
}

// grammar renders the spec's syntax, such as "opwsp:D:V[:W]".
func (s Spec) grammar() string {
	g := s.Name
	for _, k := range s.Args {
		if k == WindowCap {
			g += "[:" + placeholders[k] + "]"
		} else {
			g += ":" + placeholders[k]
		}
	}
	return g
}

// Windowed reports whether the spec takes the opening-window cap.
func (s Spec) Windowed() bool { return len(s.Args) > 0 && s.Args[len(s.Args)-1] == WindowCap }

// DefaultOnline is the on-ingest compression spec trajserver runs unless
// told otherwise.
const DefaultOnline = "opwtr:30"

var (
	d   = []ArgKind{Tolerance}
	dw  = []ArgKind{Tolerance, WindowCap}
	dvw = []ArgKind{Tolerance, Speed, WindowCap}
)

// registry is the one spec grammar: compress.Parse, stream.ParseFactory
// and every command read it. The algorithms with an online form come
// first, in the order tools list them.
var registry = []Spec{
	{Name: "nopw", Args: dw,
		Batch:  func(a []float64) Algorithm { return NOPW{Threshold: a[0]} },
		Online: func(a []float64) Engine { return NewOPWEngine(PerpViolation(a[0]), BreakAtViolation, false, int(a[1])) }},
	{Name: "opwtr", Args: dw,
		Batch:  func(a []float64) Algorithm { return OPWTR{Threshold: a[0]} },
		Online: func(a []float64) Engine { return NewOPWEngine(SEDViolation(a[0]), BreakAtViolation, false, int(a[1])) }},
	{Name: "opwsp", Args: dvw,
		Batch: func(a []float64) Algorithm { return OPWSP{DistThreshold: a[0], SpeedThreshold: a[1]} },
		Online: func(a []float64) Engine {
			return NewOPWEngine(SPViolation(a[0], a[1]), BreakAtViolation, false, int(a[2]))
		}},
	{Name: "dr", Args: d,
		Batch:  func(a []float64) Algorithm { return DeadReckoning{Threshold: a[0]} },
		Online: func(a []float64) Engine { return NewDeadReckoningEngine(a[0]) }},
	{Name: "operb", Args: d, OnePass: true,
		Batch:  func(a []float64) Algorithm { return OPERB{Threshold: a[0]} },
		Online: func(a []float64) Engine { return NewOPERBEngine(a[0]) }},
	{Name: "ciseds", Args: d, OnePass: true,
		Batch:  func(a []float64) Algorithm { return CISEDS{Threshold: a[0]} },
		Online: func(a []float64) Engine { return NewCISEDEngine(a[0], false) }},
	{Name: "cisedw", Args: d, OnePass: true, Weak: true,
		Batch:  func(a []float64) Algorithm { return CISEDW{Threshold: a[0]} },
		Online: func(a []float64) Engine { return NewCISEDEngine(a[0], true) }},

	{Name: "uniform", Args: []ArgKind{Stride}, Batch: func(a []float64) Algorithm { return Uniform{K: int(a[0])} }},
	{Name: "radial", Args: d, Batch: func(a []float64) Algorithm { return Radial{Threshold: a[0]} }},
	{Name: "angular", Args: d, Batch: func(a []float64) Algorithm { return Angular{AngleThreshold: a[0]} }},
	{Name: "ndp", Args: d, Batch: func(a []float64) Algorithm { return DouglasPeucker{Threshold: a[0]} }},
	{Name: "ndphull", Args: d, Batch: func(a []float64) Algorithm { return DouglasPeuckerHull{Threshold: a[0]} }},
	{Name: "bopw", Args: d, Batch: func(a []float64) Algorithm { return BOPW{Threshold: a[0]} }},
	{Name: "tdtr", Args: d, Batch: func(a []float64) Algorithm { return TDTR{Threshold: a[0]} }},
	{Name: "tdsp", Args: []ArgKind{Tolerance, Speed},
		Batch: func(a []float64) Algorithm { return TDSP{DistThreshold: a[0], SpeedThreshold: a[1]} }},
	{Name: "bu", Args: d, Batch: func(a []float64) Algorithm { return BottomUp{Threshold: a[0]} }},
	{Name: "butr", Args: d, Batch: func(a []float64) Algorithm { return BottomUpTR{Threshold: a[0]} }},
	{Name: "sw", Args: []ArgKind{Tolerance, Window},
		Batch: func(a []float64) Algorithm { return SlidingWindow{Threshold: a[0], Window: int(a[1])} }},
	{Name: "swtr", Args: []ArgKind{Tolerance, Window},
		Batch: func(a []float64) Algorithm { return SlidingWindowTR{Threshold: a[0], Window: int(a[1])} }},
	{Name: "ndpn", Args: []ArgKind{Budget}, Batch: func(a []float64) Algorithm { return DouglasPeuckerN{N: int(a[0])} }},
	{Name: "tdtrn", Args: []ArgKind{Budget}, Batch: func(a []float64) Algorithm { return TDTRN{N: int(a[0])} }},
	{Name: "squish", Args: []ArgKind{Budget}, Batch: func(a []float64) Algorithm { return SQUISH{Capacity: int(a[0])} }},
	{Name: "vw", Args: d, Batch: func(a []float64) Algorithm { return Visvalingam{AreaThreshold: a[0]} }},
}

// Registry returns the algorithm registry in its listing order.
func Registry() []Spec { return append([]Spec(nil), registry...) }

// Lookup returns the registry entry named by spec's keyword (the text
// before the first colon).
func Lookup(spec string) (Spec, bool) {
	name, _, _ := strings.Cut(spec, ":")
	name = strings.ToLower(strings.TrimSpace(name))
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

// OnlineGrammar lists the syntax of every spec with an online form:
// "nopw:D[:W], opwtr:D[:W], …".
func OnlineGrammar() string {
	var specs []string
	for _, s := range registry {
		if s.Online != nil {
			specs = append(specs, s.grammar())
		}
	}
	return strings.Join(specs, ", ")
}

// parse resolves spec against the registry and validates its arguments.
func parse(spec string) (Spec, []float64, error) {
	s, ok := Lookup(spec)
	if !ok {
		name, _, _ := strings.Cut(spec, ":")
		return Spec{}, nil, fmt.Errorf("compress: unknown algorithm %q (see compress.Registry for the supported set)", strings.TrimSpace(name))
	}
	parts := strings.Split(spec, ":")[1:]
	required := len(s.Args)
	if s.Windowed() {
		required--
	}
	if len(parts) < required || len(parts) > len(s.Args) {
		return Spec{}, nil, fmt.Errorf("compress: spec %q: want %s", spec, s.grammar())
	}
	args := make([]float64, len(s.Args))
	for i, part := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return Spec{}, nil, fmt.Errorf("compress: spec %q: argument %d: %w", spec, i+1, err)
		}
		if err := s.Args[i].check(v); err != nil {
			return Spec{}, nil, fmt.Errorf("compress: spec %q: argument %d: %v", spec, i+1, err)
		}
		args[i] = v
	}
	return s, args, nil
}

// Parse builds a batch Algorithm from a spec string (see Spec and the
// registry for the grammar). A window-capped opening-window spec such as
// "opwtr:30:256" compresses with the capped online engine, so its output
// equals what trajserver retains under the same spec.
func Parse(spec string) (Algorithm, error) {
	s, args, err := parse(spec)
	if err != nil {
		return nil, err
	}
	alg := s.Batch(args)
	if w := int(args[len(args)-1]); s.Windowed() && w > 0 {
		return capped{name: fmt.Sprintf("%s/W%d", alg.Name(), w), newEngine: func() Engine { return s.Online(args) }}, nil
	}
	return alg, nil
}

// ParseOnline builds a factory of fresh online engines from a spec string;
// it fails for algorithms without an online form.
func ParseOnline(spec string) (func() Engine, error) {
	s, args, err := parse(spec)
	if err != nil {
		return nil, err
	}
	if s.Online == nil {
		return nil, fmt.Errorf("compress: spec %q: %s has no online form (want one of %s)", spec, s.Name, OnlineGrammar())
	}
	return func() Engine { return s.Online(args) }, nil
}

// capped is the batch form of a window-capped opening-window spec.
type capped struct {
	name      string
	newEngine func() Engine
}

// Name implements Algorithm.
func (c capped) Name() string { return c.name }

// Compress implements Algorithm.
func (c capped) Compress(p trajectory.Trajectory) trajectory.Trajectory {
	return runEngine(p, c.newEngine())
}
