package stats

import (
	"math"
	"testing"
)

func TestMeanSum(t *testing.T) {
	if Mean(nil) != 0 || Sum(nil) != 0 {
		t.Fatal("empty input should be 0")
	}
	xs := []float64{1, 2, 3, 4}
	if Sum(xs) != 10 || Mean(xs) != 2.5 {
		t.Fatalf("Sum=%v Mean=%v", Sum(xs), Mean(xs))
	}
}

func TestRate(t *testing.T) {
	if Rate(3, 4) != 0.75 || Rate(0, 0) != 0 || Rate(0, 5) != 0 {
		t.Fatal("Rate wrong")
	}
}

func TestStdDev(t *testing.T) {
	if StdDev([]float64{5}) != 0 || StdDev(nil) != 0 {
		t.Fatal("degenerate StdDev should be 0")
	}
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestDeriveSeedDeterministic(t *testing.T) {
	a := DeriveSeed(2007, 1, 2, 3)
	b := DeriveSeed(2007, 1, 2, 3)
	if a != b {
		t.Fatalf("same inputs diverged: %d vs %d", a, b)
	}
	if DeriveSeed(2007) == 2007 {
		t.Fatal("zero-label derivation must still mix the base")
	}
}

// TestDeriveSeedUniqueness sweeps a label grid far denser than any
// experiment uses and demands zero collisions — the property the additive
// seed+offset scheme lacked (cfg.Seed+ci*1000+trial collides with the
// settle stream seed+7 at trial 7).
func TestDeriveSeedUniqueness(t *testing.T) {
	seen := make(map[int64][3]int64)
	for a := int64(0); a < 20; a++ {
		for b := int64(0); b < 20; b++ {
			for c := int64(0); c < 20; c++ {
				s := DeriveSeed(2007, a, b, c)
				if prev, dup := seen[s]; dup {
					t.Fatalf("collision: labels %v and %v both derive %d",
						prev, [3]int64{a, b, c}, s)
				}
				seen[s] = [3]int64{a, b, c}
			}
		}
	}
	// Sub-stream derivations from already-derived seeds must not collide
	// with the grid either (the failure mode of the old settle offset).
	for a := int64(0); a < 20; a++ {
		for sub := int64(1); sub <= 4; sub++ {
			s := DeriveSeed(DeriveSeed(2007, a), sub)
			if prev, dup := seen[s]; dup {
				t.Fatalf("sub-stream collision with grid labels %v", prev)
			}
			seen[s] = [3]int64{-1, a, sub}
		}
	}
}

// TestDeriveSeedOrderAndArity: labels are position-sensitive, and a prefix
// never equals its extension.
func TestDeriveSeedOrderAndArity(t *testing.T) {
	if DeriveSeed(7, 1, 2) == DeriveSeed(7, 2, 1) {
		t.Fatal("label order must matter")
	}
	if DeriveSeed(7, 1) == DeriveSeed(7, 1, 0) {
		t.Fatal("appending a label must change the seed")
	}
	if DeriveSeed(7, 1) == DeriveSeed(8, 1) {
		t.Fatal("base must matter")
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewRand(9), NewRand(9)
	for i := 0; i < 10; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed must agree")
		}
	}
	r1, r2 := NewReader(3), NewReader(3)
	b1, b2 := make([]byte, 32), make([]byte, 32)
	if _, err := r1.Read(b1); err != nil {
		t.Fatal(err)
	}
	if _, err := r2.Read(b2); err != nil {
		t.Fatal(err)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatal("NewReader not deterministic")
		}
	}
}
