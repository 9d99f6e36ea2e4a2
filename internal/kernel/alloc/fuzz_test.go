package alloc

import (
	"bytes"
	"errors"
	"testing"

	"memshield/internal/fault"
	"memshield/internal/mem"
)

// fuzzMaxPages bounds a fuzzed machine: large enough for order-MaxOrder
// merges at sizes that are not a multiple of 2^MaxOrder, small enough that
// CheckConsistency after every operation stays cheap.
const fuzzMaxPages = 2100

// FuzzAllocMatchesReference drives the per-frame allocator and the map
// allocator it replaced (mapAllocator) through the same decoded operation
// sequence — allocations at orders 0 to MaxOrder+1, frees of any page
// number (heads, non-heads, double frees, pages past the end), Tick,
// SetPolicy and injected SiteAllocPages / SiteZeroOnFree failures chosen
// by call index — and requires identical results after every operation:
// the same page, the same error, the same Stats, FreePages and
// PendingZero, and both allocators consistent.
//
// Input layout: bytes 0-1 the page count minus one, byte 2 the policy,
// byte 3 the number of injected failures, then two bytes per failure
// (site, call index), then three bytes per operation. The seed sizes are
// not multiples of 2^MaxOrder, so the last block's buddy can fall past
// the end.
func FuzzAllocMatchesReference(f *testing.F) {
	f.Add([]byte{0x04, 0x00, 0, 0, 0, 0, 0, 3, 0, 0, 4, 0, 0})                              // 1025 pages, retain
	f.Add([]byte{0x05, 0xdb, 1, 2, 0, 3, 1, 2, 0, 2, 0, 1, 0, 3, 200, 1, 4, 0, 0, 3, 0, 0}) // 1500, zero-on-free
	f.Add([]byte{0x07, 0xfe, 2, 1, 1, 4, 0, 0, 0, 0, 1, 0, 3, 0, 0, 5, 0, 0, 6, 0, 0})      // 2047, secure-dealloc
	f.Add([]byte{0x00, 0x0c, 1, 0, 0, 0, 0, 3, 12, 0, 4, 255, 0, 7, 0, 0, 4, 1, 12})        // 13 pages
	f.Add([]byte{0x08, 0x00, 0, 0, 2, 10, 0, 2, 10, 0, 3, 0, 0, 3, 0, 1, 6, 2, 0})          // 2049 pages, big blocks
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		pages := 1 + (int(data[0])<<8|int(data[1]))%fuzzMaxPages
		policy := Policy(1 + int(data[2])%3)
		plan := &fault.Plan{Seed: 1, Rules: map[fault.Site]fault.Rule{}}
		nFaults := int(data[3]) % 4
		data = data[4:]
		for i := 0; i < nFaults && len(data) >= 2; i++ {
			site := fault.SiteAllocPages
			if data[0]%2 == 1 {
				site = fault.SiteZeroOnFree
			}
			r := plan.Rules[site]
			r.Nth = append(r.Nth, 1+uint64(data[1]%64))
			plan.Rules[site] = r
			data = data[2:]
		}
		refMem, err := mem.New(pages)
		if err != nil {
			t.Fatal(err)
		}
		gotMem, err := mem.New(pages)
		if err != nil {
			t.Fatal(err)
		}
		ref := newMapAllocator(refMem, policy, fault.NewInjector(plan))
		got, err := New(gotMem, policy)
		if err != nil {
			t.Fatal(err)
		}
		got.SetInjector(fault.NewInjector(plan))

		// live and freed hold block heads, so most frees name real
		// blocks and double frees are common; raw page numbers cover the
		// rest, including non-heads and pages past the end.
		var live, freed []mem.PageNum
		// dirtyFree is set once SetPolicy switches to zero-on-free from
		// another policy: pages freed before the switch are legitimately
		// dirty, so from then on the two checks need only agree.
		dirtyFree := false
		for step := 0; len(data) >= 3 && step < 128; step++ {
			op, x, y := data[0]%8, data[1], data[2]
			data = data[3:]
			var gotPN, refPN mem.PageNum
			var gotErr, refErr error
			switch op {
			case 0, 1, 2:
				order := int(x) % (MaxOrder + 2)
				gotPN, gotErr = got.AllocPages(order, mem.OwnerUser)
				refPN, refErr = ref.AllocPages(order, mem.OwnerUser)
				if gotErr == nil && refErr == nil && gotPN == refPN {
					live = append(live, gotPN)
					// Mark the block so zeroing, or its absence, shows.
					mark := []byte{byte(step + 1)}
					if err := gotMem.Write(gotPN.Base(), mark); err != nil {
						t.Fatal(err)
					}
					if err := refMem.Write(refPN.Base(), mark); err != nil {
						t.Fatal(err)
					}
				}
			case 3, 4, 7:
				pn := mem.PageNum(int(x)<<8 | int(y))
				switch {
				case op == 3 && len(live) > 0:
					i := int(y) % len(live)
					pn = live[i]
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
					freed = append(freed, pn)
				case op == 7 && len(freed) > 0:
					pn = freed[int(y)%len(freed)]
				case x == 255:
					pn = ^mem.PageNum(0) - mem.PageNum(y)
				default:
					pn %= mem.PageNum(pages + 16)
				}
				gotErr = got.Free(pn)
				refErr = ref.Free(pn)
			case 5:
				got.Tick()
				ref.Tick()
			case 6:
				p := Policy(int(x) % 4)
				if p == PolicyZeroOnFree && got.Policy() != PolicyZeroOnFree {
					dirtyFree = true
				}
				gotErr = got.SetPolicy(p)
				refErr = ref.SetPolicy(p)
			}
			if gotPN != refPN {
				t.Fatalf("step %d op %d: page %d, reference %d", step, op, gotPN, refPN)
			}
			if errText(gotErr) != errText(refErr) {
				t.Fatalf("step %d op %d: error %v, reference %v", step, op, gotErr, refErr)
			}
			for _, target := range []error{ErrOutOfMemory, ErrZeroOnFree, fault.ErrInjected} {
				if errors.Is(gotErr, target) != errors.Is(refErr, target) {
					t.Fatalf("step %d op %d: errors.Is(%v, %v) differs from reference %v", step, op, gotErr, target, refErr)
				}
			}
			if g, r := got.Stats(), ref.Stats(); g != r {
				t.Fatalf("step %d op %d: stats %+v, reference %+v", step, op, g, r)
			}
			if g, r := got.FreePages(), ref.FreePages(); g != r {
				t.Fatalf("step %d op %d: FreePages %d, reference %d", step, op, g, r)
			}
			if g, r := got.PendingZero(), ref.PendingZero(); g != r {
				t.Fatalf("step %d op %d: PendingZero %d, reference %d", step, op, g, r)
			}
			gotCheck, refCheck := got.CheckConsistency(), ref.CheckConsistency()
			if !dirtyFree && (gotCheck != nil || refCheck != nil) {
				t.Fatalf("step %d op %d: inconsistent: %v; reference: %v", step, op, gotCheck, refCheck)
			}
			if (gotCheck == nil) != (refCheck == nil) {
				t.Fatalf("step %d op %d: consistency %v, reference %v", step, op, gotCheck, refCheck)
			}
		}
		gotBytes, err := gotMem.Read(0, gotMem.Size())
		if err != nil {
			t.Fatal(err)
		}
		refBytes, err := refMem.Read(0, refMem.Size())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotBytes, refBytes) {
			t.Fatal("physical memory differs from the reference run")
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
