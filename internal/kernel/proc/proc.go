// Package proc implements the simulated process table: PID assignment,
// parent/child relationships, and process lifecycle. The scanner uses it to
// attribute key-holding pages to live processes, mirroring the paper's LKM
// walking for_each_process over the anon-VMA reverse map.
package proc

import (
	"errors"
	"fmt"
	"sort"
)

// State is the lifecycle state of a process.
type State int

// Process states.
const (
	StateRunning State = iota + 1
	StateZombie
)

func (s State) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateZombie:
		return "zombie"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// ErrNoProcess is returned for operations on unknown PIDs.
var ErrNoProcess = errors.New("proc: no such process")

// Process is one simulated process.
type Process struct {
	PID   int
	PPID  int
	Name  string
	State State

	// children counts the other table entries whose PPID is this PID, so
	// Exit scans for children to reparent only when there are some. It
	// can over-count, never under-count: a process that Exit reparents
	// onto itself (a cycle only a not-yet-assigned parent PID can build)
	// keeps counting itself, which costs one needless scan.
	children int
}

// Table is the machine's process table. PID 0 is reserved for the kernel
// itself and never appears in the table.
type Table struct {
	procs   map[int]*Process
	nextPID int
	// futurePPID is the largest PPID passed to Create before that PID was
	// assigned. Only a new process whose PID is at most this can already
	// have children in the table.
	futurePPID int
}

// NewTable creates an empty process table. PIDs start at 1 (init).
func NewTable() *Table {
	return &Table{procs: make(map[int]*Process), nextPID: 1}
}

// Create adds a new running process with the given parent and name,
// returning it with a fresh PID.
func (t *Table) Create(ppid int, name string) *Process {
	p := &Process{PID: t.nextPID, PPID: ppid, Name: name, State: StateRunning}
	if parent, ok := t.procs[ppid]; ok {
		parent.children++
	} else if ppid >= t.nextPID && ppid > t.futurePPID {
		t.futurePPID = ppid
	}
	if p.PID <= t.futurePPID {
		for _, c := range t.procs {
			if c.PPID == p.PID {
				p.children++
			}
		}
	}
	t.nextPID++
	t.procs[p.PID] = p
	return p
}

// Get returns the process with the given PID.
func (t *Table) Get(pid int) (*Process, error) {
	p, ok := t.procs[pid]
	if !ok {
		return nil, fmt.Errorf("%w: pid %d", ErrNoProcess, pid)
	}
	return p, nil
}

// Exists reports whether the PID names a process (running or zombie).
func (t *Table) Exists(pid int) bool {
	_, ok := t.procs[pid]
	return ok
}

// Exit marks a running process as a zombie. Its children are re-parented to
// the exiting process's parent (a simplification of re-parenting to init).
// The table is scanned only when the process has children; a process that
// never forked exits in O(1).
func (t *Table) Exit(pid int) error {
	p, err := t.Get(pid)
	if err != nil {
		return err
	}
	if p.State == StateZombie {
		return fmt.Errorf("proc: pid %d already exited", pid)
	}
	p.State = StateZombie
	if p.children == 0 {
		return nil
	}
	for _, c := range t.procs {
		if c.PPID == pid {
			c.PPID = p.PPID
		}
	}
	if parent, ok := t.procs[p.PPID]; ok {
		parent.children += p.children
	}
	p.children = 0
	return nil
}

// Reap removes a zombie from the table.
func (t *Table) Reap(pid int) error {
	p, err := t.Get(pid)
	if err != nil {
		return err
	}
	if p.State != StateZombie {
		return fmt.Errorf("proc: reap of running pid %d", pid)
	}
	if parent, ok := t.procs[p.PPID]; ok {
		parent.children--
	}
	delete(t.procs, pid)
	return nil
}

// Children returns the PIDs whose parent is pid, sorted ascending.
func (t *Table) Children(pid int) []int {
	var out []int
	for _, p := range t.procs {
		if p.PPID == pid {
			out = append(out, p.PID)
		}
	}
	sort.Ints(out)
	return out
}

// Live returns the PIDs of all running processes, sorted ascending.
func (t *Table) Live() []int {
	var out []int
	for _, p := range t.procs {
		if p.State == StateRunning {
			out = append(out, p.PID)
		}
	}
	sort.Ints(out)
	return out
}

// Count returns the number of table entries (running + zombie).
func (t *Table) Count() int { return len(t.procs) }
