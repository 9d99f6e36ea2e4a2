package proc

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestCreateAssignsIncreasingPIDs(t *testing.T) {
	tb := NewTable()
	p1 := tb.Create(0, "init")
	p2 := tb.Create(p1.PID, "sshd")
	if p1.PID != 1 || p2.PID != 2 {
		t.Fatalf("PIDs = %d, %d; want 1, 2", p1.PID, p2.PID)
	}
	if p2.PPID != p1.PID {
		t.Fatal("PPID wrong")
	}
	if p1.State != StateRunning {
		t.Fatal("new process should be running")
	}
	if tb.Count() != 2 {
		t.Fatal("Count wrong")
	}
}

func TestGetAndExists(t *testing.T) {
	tb := NewTable()
	p := tb.Create(0, "a")
	got, err := tb.Get(p.PID)
	if err != nil || got.Name != "a" {
		t.Fatalf("Get = %v, %v", got, err)
	}
	if _, err := tb.Get(99); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("Get(99) = %v", err)
	}
	if !tb.Exists(p.PID) || tb.Exists(99) {
		t.Fatal("Exists wrong")
	}
}

func TestExitAndReap(t *testing.T) {
	tb := NewTable()
	p := tb.Create(0, "a")
	if err := tb.Reap(p.PID); err == nil {
		t.Fatal("reap of running process: want error")
	}
	if err := tb.Exit(p.PID); err != nil {
		t.Fatal(err)
	}
	got, _ := tb.Get(p.PID)
	if got.State != StateZombie {
		t.Fatal("should be zombie")
	}
	if err := tb.Exit(p.PID); err == nil {
		t.Fatal("double exit: want error")
	}
	if err := tb.Reap(p.PID); err != nil {
		t.Fatal(err)
	}
	if tb.Exists(p.PID) {
		t.Fatal("reaped process should be gone")
	}
	if err := tb.Exit(42); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("Exit(42) = %v", err)
	}
	if err := tb.Reap(42); !errors.Is(err, ErrNoProcess) {
		t.Fatalf("Reap(42) = %v", err)
	}
}

func TestExitReparentsChildren(t *testing.T) {
	tb := NewTable()
	init := tb.Create(0, "init")
	parent := tb.Create(init.PID, "parent")
	child := tb.Create(parent.PID, "child")
	if err := tb.Exit(parent.PID); err != nil {
		t.Fatal(err)
	}
	got, _ := tb.Get(child.PID)
	if got.PPID != init.PID {
		t.Fatalf("child PPID = %d, want %d (reparented)", got.PPID, init.PID)
	}
}

func TestChildrenAndLive(t *testing.T) {
	tb := NewTable()
	parent := tb.Create(0, "p")
	c1 := tb.Create(parent.PID, "c1")
	c2 := tb.Create(parent.PID, "c2")
	tb.Create(c1.PID, "grandchild")
	kids := tb.Children(parent.PID)
	if len(kids) != 2 || kids[0] != c1.PID || kids[1] != c2.PID {
		t.Fatalf("Children = %v", kids)
	}
	if err := tb.Exit(c2.PID); err != nil {
		t.Fatal(err)
	}
	live := tb.Live()
	if len(live) != 3 {
		t.Fatalf("Live = %v, want 3 running", live)
	}
	for _, pid := range live {
		if pid == c2.PID {
			t.Fatal("zombie in Live()")
		}
	}
}

func TestStateString(t *testing.T) {
	if StateRunning.String() != "running" || StateZombie.String() != "zombie" {
		t.Fatal("State.String wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should format")
	}
}

// Property: over random Create/Exit/Reap sequences, Children matches a
// shadow model of every entry's parent after each operation — so the child
// count can never let Exit skip a scan that had children to reparent.
// Parents are drawn from live, zombie and reaped PIDs, PID 0 and PIDs not
// yet assigned.
func TestQuickChildrenMatchShadowModel(t *testing.T) {
	type entry struct {
		ppid   int
		zombie bool
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable()
		shadow := map[int]*entry{}
		next := 1
		for step := 0; step < 200; step++ {
			pid := rng.Intn(next + 3)
			switch rng.Intn(3) {
			case 0:
				p := tb.Create(pid, "p")
				if p.PID != next {
					return false
				}
				shadow[next] = &entry{ppid: pid}
				next++
			case 1:
				e, ok := shadow[pid]
				err := tb.Exit(pid)
				if ok && !e.zombie {
					if err != nil {
						return false
					}
					e.zombie = true
					for _, c := range shadow {
						if c.ppid == pid {
							c.ppid = e.ppid
						}
					}
				} else if err == nil {
					return false
				}
			case 2:
				e, ok := shadow[pid]
				err := tb.Reap(pid)
				if ok && e.zombie {
					if err != nil {
						return false
					}
					delete(shadow, pid)
				} else if err == nil {
					return false
				}
			}
			for parent := 0; parent < next+3; parent++ {
				var want []int
				for c := 1; c < next; c++ {
					if e, ok := shadow[c]; ok && e.ppid == parent {
						want = append(want, c)
					}
				}
				if !slices.Equal(tb.Children(parent), want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
