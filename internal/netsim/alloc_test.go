package netsim

import (
	"testing"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/sim"
)

// Allocation gates for the forwarding hot path (PR 7). The CAM refresh runs
// once per frame per switch hop, and the full NIC→link→switch→link→NIC
// unicast transit is the inner loop of every experiment — both must be
// allocation-free in steady state (pooled transits, pooled scheduler
// events, shared read-only frames).

func TestCAMLearnRefreshAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	src := ethaddr.MAC{0x02, 0, 0, 0, 0, 1}
	sw.learn(0, 0, src, 0)
	allocs := testing.AllocsPerRun(1000, func() {
		sw.learn(0, 0, src, s.Now())
	})
	if allocs != 0 {
		t.Fatalf("CAM refresh: %v allocs/op, want 0", allocs)
	}
}

// TestCAMFullLearnAllocFree covers the CAM-flood path, where every frame
// is a new source at a full table: a refused learn (fail-open) and an
// expired-entry reclaim followed by an insert must both be allocation-free.
func TestCAMFullLearnAllocFree(t *testing.T) {
	const capacity = 64
	mac := func(i int) ethaddr.MAC {
		return ethaddr.MAC{0x02, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
	}
	t.Run("refused", func(t *testing.T) {
		s := sim.NewScheduler(1)
		sw := NewSwitch(s, WithCAMCapacity(capacity))
		for i := 0; i < capacity; i++ {
			sw.learn(0, 1, mac(i), 0)
		}
		next := capacity
		allocs := testing.AllocsPerRun(1000, func() {
			sw.learn(0, 1, mac(next), 0)
			next++
		})
		if allocs != 0 {
			t.Fatalf("refused learn: %v allocs/op, want 0", allocs)
		}
		if st := sw.Stats(); st.LearnMisses < 1000 || st.Learned != capacity {
			t.Fatalf("learned %d, missed %d: want every flood source refused", st.Learned, st.LearnMisses)
		}
	})
	t.Run("reclaim", func(t *testing.T) {
		s := sim.NewScheduler(1)
		sw := NewSwitch(s, WithCAMCapacity(capacity), WithCAMTTL(time.Second))
		for i := 0; i < capacity; i++ {
			sw.learn(0, 1, mac(i), 0)
		}
		// Each learn lands one TTL after the previous one, so every entry
		// has expired and each new source reclaims one slot.
		next := capacity
		allocs := testing.AllocsPerRun(1000, func() {
			sw.learn(0, 1, mac(next), time.Duration(next)*time.Second)
			next++
		})
		if allocs != 0 {
			t.Fatalf("expired reclaim + insert: %v allocs/op, want 0", allocs)
		}
		if st := sw.Stats(); st.LearnMisses != 0 || st.Learned < capacity+1000 {
			t.Fatalf("learned %d, missed %d: want every flood source admitted", st.Learned, st.LearnMisses)
		}
	})
}

func TestUnicastTransitAllocFree(t *testing.T) {
	s := sim.NewScheduler(1)
	sw := NewSwitch(s)
	st := newLAN(t, s, sw, 2)
	for _, station := range st {
		station.nic.SetHandler(func(*frame.Frame) {})
	}
	// Teach the CAM both stations so forwarding is pure unicast, and warm
	// the pools (first transits populate the scheduler free list and the
	// transit pool).
	f01 := uni(st[0].nic.MAC(), st[1].nic.MAC())
	f10 := uni(st[1].nic.MAC(), st[0].nic.MAC())
	st[0].nic.Send(f01)
	st[1].nic.Send(f10)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		st[0].nic.Send(f01)
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("unicast switch transit: %v allocs/op, want 0", allocs)
	}
}
