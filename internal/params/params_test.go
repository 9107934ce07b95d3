package params

import (
	"testing"
	"testing/quick"

	"pipetune/internal/xrand"
)

func TestDefaultsValidate(t *testing.T) {
	if err := DefaultHyper().Validate(); err != nil {
		t.Fatalf("default hyper invalid: %v", err)
	}
	if err := DefaultSysConfig().Validate(); err != nil {
		t.Fatalf("default sysconfig invalid: %v", err)
	}
}

func TestHyperValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Hyper)
	}{
		{"zero batch", func(h *Hyper) { h.BatchSize = 0 }},
		{"huge batch", func(h *Hyper) { h.BatchSize = 10000 }},
		{"zero lr", func(h *Hyper) { h.LearningRate = 0 }},
		{"big lr", func(h *Hyper) { h.LearningRate = 2 }},
		{"neg dropout", func(h *Hyper) { h.Dropout = -0.1 }},
		{"big dropout", func(h *Hyper) { h.Dropout = 0.95 }},
		{"zero emb", func(h *Hyper) { h.EmbeddingDim = 0 }},
		{"zero epochs", func(h *Hyper) { h.Epochs = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := DefaultHyper()
			tc.mut(&h)
			if err := h.Validate(); err == nil {
				t.Fatalf("%+v validated but should not", h)
			}
		})
	}
}

func TestSysConfigValidateRejects(t *testing.T) {
	for _, s := range []SysConfig{{Cores: 0, MemoryGB: 8}, {Cores: 8, MemoryGB: 0}, {Cores: 100, MemoryGB: 8}} {
		if err := s.Validate(); err == nil {
			t.Fatalf("%+v validated but should not", s)
		}
	}
}

func TestAssignmentApply(t *testing.T) {
	a := Assignment{
		KeyBatchSize:    256,
		KeyLearningRate: 0.05,
		KeyCores:        16,
	}
	h := a.ApplyHyper(DefaultHyper())
	if h.BatchSize != 256 || h.LearningRate != 0.05 {
		t.Fatalf("ApplyHyper = %+v", h)
	}
	if h.Dropout != DefaultHyper().Dropout {
		t.Fatal("untouched field changed")
	}
	s := a.ApplySys(DefaultSysConfig())
	if s.Cores != 16 {
		t.Fatalf("ApplySys = %+v", s)
	}
	if s.MemoryGB != DefaultSysConfig().MemoryGB {
		t.Fatal("untouched sys field changed")
	}
}

func TestAssignmentKeyCanonical(t *testing.T) {
	a := Assignment{"b": 2, "a": 1}
	b := Assignment{"a": 1, "b": 2}
	if a.Key() != b.Key() {
		t.Fatalf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	c := Assignment{"a": 1, "b": 3}
	if a.Key() == c.Key() {
		t.Fatal("different assignments share a key")
	}
}

func TestAssignmentClone(t *testing.T) {
	a := Assignment{"x": 1}
	b := a.Clone()
	b["x"] = 2
	if a["x"] != 1 {
		t.Fatal("Clone is not independent")
	}
}

func TestSpaceSizeAndGrid(t *testing.T) {
	s := Space{
		{Name: "a", Values: []float64{1, 2}},
		{Name: "b", Values: []float64{10, 20, 30}},
	}
	if s.Size() != 6 {
		t.Fatalf("Size = %d, want 6", s.Size())
	}
	seen := make(map[string]bool)
	for i := 0; i < s.Size(); i++ {
		a := s.At(i)
		if seen[a.Key()] {
			t.Fatalf("duplicate grid point %v", a)
		}
		seen[a.Key()] = true
	}
	if (Space{}).Size() != 0 {
		t.Fatal("empty space size != 0")
	}
}

func TestSpaceAtPanicsOutOfRange(t *testing.T) {
	s := Space{{Name: "a", Values: []float64{1}}}
	defer func() {
		if recover() == nil {
			t.Fatal("At(5) did not panic")
		}
	}()
	s.At(5)
}

func TestSpaceValidate(t *testing.T) {
	good := Space{{Name: "a", Values: []float64{1}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Space{
		{{Name: "", Values: []float64{1}}},
		{{Name: "a", Values: nil}},
		{{Name: "a", Values: []float64{1}}, {Name: "a", Values: []float64{2}}},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("space %v validated but should not", bad)
		}
	}
}

func TestSpaceSampleWithinValues(t *testing.T) {
	s := Space{
		{Name: "a", Values: []float64{1, 2, 3}},
		{Name: "b", Values: []float64{7}},
	}
	r := xrand.New(1)
	for i := 0; i < 100; i++ {
		a := s.Sample(r)
		if a["a"] < 1 || a["a"] > 3 || a["b"] != 7 {
			t.Fatalf("sample out of space: %v", a)
		}
	}
}

func TestConcat(t *testing.T) {
	h := PaperHyperSpace()
	sys := PaperSystemSpace()
	both := Concat(h, sys)
	if len(both) != len(h)+len(sys) {
		t.Fatalf("Concat len = %d", len(both))
	}
	if both.Size() != h.Size()*sys.Size() {
		t.Fatalf("Concat size = %d, want %d", both.Size(), h.Size()*sys.Size())
	}
	if err := both.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPaperSpacesProduceValidConfigs(t *testing.T) {
	for hs, i := PaperHyperSpace(), 0; i < hs.Size(); i++ {
		a := hs.At(i)
		h := a.ApplyHyper(DefaultHyper())
		if err := h.Validate(); err != nil {
			t.Fatalf("grid point %v gives invalid hyper: %v", a, err)
		}
	}
	for ss, i := PaperSystemSpace(), 0; i < ss.Size(); i++ {
		a := ss.At(i)
		s := a.ApplySys(DefaultSysConfig())
		if err := s.Validate(); err != nil {
			t.Fatalf("grid point %v gives invalid sysconfig: %v", a, err)
		}
	}
}

// Property: every grid index yields a point whose values belong to the
// respective dimensions, and indexes enumerate without collision.
func TestQuickGridMembership(t *testing.T) {
	s := Space{
		{Name: "a", Values: []float64{1, 2, 3}},
		{Name: "b", Values: []float64{4, 5}},
		{Name: "c", Values: []float64{6, 7, 8, 9}},
	}
	member := func(vals []float64, v float64) bool {
		for _, x := range vals {
			if x == v {
				return true
			}
		}
		return false
	}
	f := func(rawIdx uint16) bool {
		i := int(rawIdx) % s.Size()
		a := s.At(i)
		for _, d := range s {
			if !member(d.Values, a[d.Name]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
