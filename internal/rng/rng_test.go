package rng

import "testing"

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestSeedsDecorrelated(t *testing.T) {
	if New(1).Uint64() == New(2).Uint64() {
		t.Fatal("adjacent seeds produced identical first draw")
	}
}

func TestSplitIndependent(t *testing.T) {
	g := New(7)
	c1 := g.Split()
	c2 := g.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("two splits produced identical streams")
	}
}

func TestUniformRange(t *testing.T) {
	g := New(3)
	for i := 0; i < 1000; i++ {
		v := g.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	g := New(3)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	g := New(11)
	p := g.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestBoolBalance(t *testing.T) {
	g := New(13)
	ones := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if g.Bool() {
			ones++
		}
	}
	if ones < n*4/10 || ones > n*6/10 {
		t.Fatalf("Bool bias: %d/%d", ones, n)
	}
}
