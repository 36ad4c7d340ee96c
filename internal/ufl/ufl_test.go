package ufl

import (
	"math"
	"math/rand"
	"testing"
)

// randomInstance builds a random metric-ish instance with nf facilities and
// nc clients placed on a line (so connection costs obey the triangle
// inequality, like the paper's hop-count RDC).
func randomInstance(rng *rand.Rand, nf, nc int, maxOpen float64) *Instance {
	fpos := make([]float64, nf)
	cpos := make([]float64, nc)
	for i := range fpos {
		fpos[i] = rng.Float64() * 100
	}
	for j := range cpos {
		cpos[j] = rng.Float64() * 100
	}
	in := &Instance{
		OpenCost: make([]float64, nf),
		ConnCost: make([][]float64, nf),
	}
	for i := range in.OpenCost {
		in.OpenCost[i] = rng.Float64() * maxOpen
		in.ConnCost[i] = make([]float64, nc)
		for j := range in.ConnCost[i] {
			in.ConnCost[i][j] = math.Abs(fpos[i] - cpos[j])
		}
	}
	return in
}

func TestSolversFeasibleOnRandomInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		in := randomInstance(rng, 2+rng.Intn(10), 2+rng.Intn(15), 50)
		for name, solve := range map[string]func(*Instance) (*Solution, error){"greedy": Greedy, "exact": Exact} {
			sol, err := solve(in)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := sol.Verify(in); err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
		}
	}
}

func TestSolversNearOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	worst := 0.0
	for trial := 0; trial < 40; trial++ {
		in := randomInstance(rng, 2+rng.Intn(8), 2+rng.Intn(12), 40)
		opt, err := Exact(in)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := Greedy(in)
		if err != nil {
			t.Fatal(err)
		}
		ratio := sol.Cost / opt.Cost
		if ratio < 1-1e-9 {
			t.Fatalf("trial %d: greedy cost %v below optimum %v", trial, sol.Cost, opt.Cost)
		}
		worst = math.Max(worst, ratio)
	}
	// Greedy's guarantee is ln n; on these small geometric instances it
	// should be far better than its worst case.
	if worst > 1.7 {
		t.Errorf("greedy worst ratio %.3f exceeds empirical bound 1.7", worst)
	}
	t.Logf("greedy worst ratio: %.4f", worst)
}

func TestExactSmallHandChecked(t *testing.T) {
	// Two facilities, three clients. Opening both is optimal.
	in := &Instance{
		OpenCost: []float64{1, 1},
		ConnCost: [][]float64{
			{0, 0, 10},
			{10, 10, 0},
		},
	}
	opt, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost != 2 {
		t.Fatalf("optimal cost = %v, want 2 (open both)", opt.Cost)
	}
	if len(opt.Open) != 2 {
		t.Fatalf("open = %v, want both facilities", opt.Open)
	}

	// Expensive second facility: open only the first.
	in.OpenCost[1] = 100
	opt, err = Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Open) != 1 || opt.Open[0] != 0 {
		t.Fatalf("open = %v, want [0]", opt.Open)
	}
	if opt.Cost != 1+0+0+10 {
		t.Fatalf("cost = %v, want 11", opt.Cost)
	}
}

func TestInfiniteOpenCostAvoided(t *testing.T) {
	// Facility 0 is full (FDC = +Inf per eq. 1); everything must go to 1.
	in := &Instance{
		OpenCost: []float64{math.Inf(1), 5},
		ConnCost: [][]float64{
			{0, 0},
			{1, 1},
		},
	}
	sol, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range sol.Open {
		if i == 0 {
			t.Fatal("greedy opened the infinite-cost facility")
		}
	}
}

func TestAllInfiniteFallsBack(t *testing.T) {
	in := &Instance{
		OpenCost: []float64{math.Inf(1), math.Inf(1)},
		ConnCost: [][]float64{
			{5, 5},
			{1, 1},
		},
	}
	for name, solve := range map[string]func(*Instance) (*Solution, error){"Greedy": Greedy, "Exact": Exact} {
		sol, err := solve(in)
		if err != nil {
			t.Fatal(err)
		}
		if len(sol.Open) != 1 || sol.Open[0] != 1 {
			t.Fatalf("%s open = %v, want fallback [1]", name, sol.Open)
		}
	}
}

func TestZeroOpenCostsOpenFreely(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomInstance(rng, 6, 10, 0)
	opt, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	// With free facilities, the optimum is every client at its nearest
	// facility.
	want := 0.0
	for j := 0; j < in.NClients(); j++ {
		best := math.Inf(1)
		for i := 0; i < in.NFacilities(); i++ {
			best = math.Min(best, in.ConnCost[i][j])
		}
		want += best
	}
	if math.Abs(opt.Cost-want) > 1e-9 {
		t.Fatalf("cost = %v, want %v", opt.Cost, want)
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []*Instance{
		{},
		{OpenCost: []float64{1}, ConnCost: nil},
		{OpenCost: []float64{1, 2}, ConnCost: [][]float64{{1}, {1, 2}}},
		{OpenCost: []float64{-1}, ConnCost: [][]float64{{1}}},
		{OpenCost: []float64{math.NaN()}, ConnCost: [][]float64{{1}}},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("instance %d validated", i)
		}
	}
}

func TestVerifyCatchesBadSolutions(t *testing.T) {
	in := &Instance{
		OpenCost: []float64{1, 1},
		ConnCost: [][]float64{{0, 1}, {1, 0}},
	}
	good, err := Exact(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := good.Verify(in); err != nil {
		t.Fatal(err)
	}
	cases := map[string]*Solution{
		"no open":       {Open: nil, Assign: []int{0, 0}, Cost: 0},
		"closed assign": {Open: []int{0}, Assign: []int{0, 1}, Cost: 2},
		"out of range":  {Open: []int{5}, Assign: []int{5, 5}, Cost: 0},
		"cost mismatch": {Open: good.Open, Assign: good.Assign, Cost: good.Cost + 5},
		"wrong arity":   {Open: good.Open, Assign: good.Assign[:1], Cost: good.Cost},
	}
	for name, sol := range cases {
		if err := sol.Verify(in); err == nil {
			t.Errorf("%s verified", name)
		}
	}
}

func TestExactRefusesLargeInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	in := randomInstance(rng, MaxExactFacilities+1, 3, 10)
	if _, err := Exact(in); err == nil {
		t.Fatal("Exact accepted an oversized instance")
	}
}

func TestGreedyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomInstance(rng, 8, 20, 30)
	a, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Greedy(in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cost != b.Cost || len(a.Open) != len(b.Open) {
		t.Fatal("greedy not deterministic")
	}
	for i := range a.Open {
		if a.Open[i] != b.Open[i] {
			t.Fatal("greedy open sets differ between runs")
		}
	}
}

func TestSingleFacilitySingleClient(t *testing.T) {
	in := &Instance{OpenCost: []float64{3}, ConnCost: [][]float64{{2}}}
	for name, solve := range map[string]func(*Instance) (*Solution, error){"greedy": Greedy, "exact": Exact} {
		sol, err := solve(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sol.Cost != 5 {
			t.Fatalf("%s: cost = %v, want 5", name, sol.Cost)
		}
	}
}
