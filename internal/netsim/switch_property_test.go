package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// wireOp is one randomized frame injection.
type wireOp struct {
	port    uint8
	srcIdx  uint8
	dstIdx  uint8 // 255 = broadcast
	advance uint16
}

// Generate implements quick.Generator.
func (wireOp) Generate(r *rand.Rand, _ int) reflect.Value {
	dst := uint8(r.Intn(32))
	if r.Intn(4) == 0 {
		dst = 255
	}
	return reflect.ValueOf(wireOp{
		port:    uint8(r.Intn(4)),
		srcIdx:  uint8(r.Intn(32)),
		dstIdx:  dst,
		advance: uint16(r.Intn(2000)),
	})
}

var _ quick.Generator = wireOp{}

func opMAC(i uint8) ethaddr.MAC {
	if i == 255 {
		return ethaddr.BroadcastMAC
	}
	return ethaddr.MAC{0x02, 0x42, 0xac, 0, 1, i}
}

// TestPropertyCAMNeverExceedsCapacity: no frame stream may grow the CAM
// past its configured bound, with or without random eviction.
func TestPropertyCAMNeverExceedsCapacity(t *testing.T) {
	run := func(ops []wireOp, evict bool) bool {
		s := sim.NewScheduler(1)
		swOpts := []SwitchOption{WithCAMCapacity(8), WithCAMTTL(time.Second)}
		if evict {
			swOpts = append(swOpts, WithCAMEvictRandom())
		}
		sw := NewSwitch(s, swOpts...)
		nics := make([]*NIC, 4)
		gen := ethaddr.NewGen(1)
		for i := range nics {
			nics[i] = NewNIC(s, gen.SeqMAC())
			sw.AddPort().Attach(nics[i])
		}
		for _, op := range ops {
			nics[int(op.port)%len(nics)].Send(&frame.Frame{
				Dst:  opMAC(op.dstIdx),
				Src:  opMAC(op.srcIdx % 32),
				Type: frame.TypeIPv4,
			})
			var done bool
			s.After(time.Duration(op.advance)*time.Millisecond, func() { done = true })
			_ = s.Run()
			_ = done
			if sw.CAMLen() > 8 {
				return false
			}
		}
		return true
	}
	f := func(ops []wireOp, evict bool) bool { return run(ops, evict) }
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyDeliveryRespectsAddressing: no NIC without promiscuous mode
// ever accepts a unicast frame addressed to another station, under any
// traffic pattern.
func TestPropertyDeliveryRespectsAddressing(t *testing.T) {
	f := func(ops []wireOp) bool {
		s := sim.NewScheduler(1)
		sw := NewSwitch(s)
		const n = 4
		nics := make([]*NIC, n)
		wrong := false
		for i := range nics {
			mac := ethaddr.MAC{0x02, 0x42, 0xac, 0, 2, byte(i)}
			nic := NewNIC(s, mac)
			nic.SetHandler(func(f *frame.Frame) {
				if f.Dst != mac && !f.Dst.IsMulticast() {
					wrong = true
				}
			})
			sw.AddPort().Attach(nic)
			nics[i] = nic
		}
		for _, op := range ops {
			nics[int(op.port)%n].Send(&frame.Frame{
				Dst:  opMAC(op.dstIdx),
				Src:  nics[int(op.port)%n].MAC(),
				Type: frame.TypeIPv4,
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return !wrong
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertyVLANIsolationHolds: no frame injected in one VLAN is ever
// delivered to a station in another, regardless of CAM state or flooding.
func TestPropertyVLANIsolationHolds(t *testing.T) {
	f := func(ops []wireOp) bool {
		s := sim.NewScheduler(1)
		sw := NewSwitch(s, WithCAMCapacity(4)) // tiny CAM: force fail-open floods
		const n = 4
		leaked := false
		nics := make([]*NIC, n)
		for i := range nics {
			nic := NewNIC(s, ethaddr.MAC{0x02, 0x42, 0xac, 0, 3, byte(i)})
			nic.SetPromiscuous(true) // accept anything that arrives
			if i >= 2 {
				nic.SetHandler(func(*frame.Frame) { leaked = true })
			}
			p := sw.AddPort()
			if i >= 2 {
				p.SetVLAN(2)
			}
			p.Attach(nic)
			nics[i] = nic
		}
		// Inject only from VLAN-1 ports (0 and 1).
		for _, op := range ops {
			nics[int(op.port)%2].Send(&frame.Frame{
				Dst:  opMAC(op.dstIdx),
				Src:  opMAC(op.srcIdx % 32),
				Type: frame.TypeIPv4,
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return !leaked
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// refCAM is a reference model of the CAM as the switch kept it before the
// flat slot array: a map of entries plus an insertion-order key index,
// swap-filled on delete, and a full scan for an expired entry on every miss
// at a full table. It also models the forwarding decision's counters.
type refCAM struct {
	cam         map[camKey]refEntry
	order       []camKey
	capacity    int
	ttl         time.Duration
	evictRandom bool
	rng         *sim.Scheduler // same seed as the switch's: same Rand stream
	vlanOf      []uint16       // port id → VLAN

	stats                               SwitchStats
	inserts, evictExp, evictRand, opens uint64
	failOpen                            bool
}

type refEntry struct {
	port    int
	expires time.Duration
	idx     int
}

func (m *refCAM) insert(key camKey, port int, expires time.Duration) {
	m.cam[key] = refEntry{port: port, expires: expires, idx: len(m.order)}
	m.order = append(m.order, key)
}

func (m *refCAM) delete(key camKey) {
	e, ok := m.cam[key]
	if !ok {
		return
	}
	last := len(m.order) - 1
	moved := m.order[last]
	m.order[e.idx] = moved
	m.order = m.order[:last]
	if moved != key {
		me := m.cam[moved]
		me.idx = e.idx
		m.cam[moved] = me
	}
	delete(m.cam, key)
}

func (m *refCAM) flush() {
	m.cam = make(map[camKey]refEntry)
	m.order = m.order[:0]
}

func (m *refCAM) learn(id int, vlan uint16, src ethaddr.MAC, now time.Duration) {
	if !src.IsUnicast() {
		return
	}
	key := camKey{vlan: vlan, mac: src}
	if e, ok := m.cam[key]; ok {
		e.port = id
		e.expires = now + m.ttl
		m.cam[key] = e
		return
	}
	if len(m.cam) >= m.capacity {
		reclaimed := false
		for _, k := range m.order {
			if m.cam[k].expires <= now {
				m.delete(k)
				m.evictExp++
				reclaimed = true
				break
			}
		}
		if !reclaimed && m.evictRandom {
			m.delete(m.order[m.rng.Rand().Intn(len(m.order))])
			m.evictRand++
			reclaimed = true
		}
		if !reclaimed {
			m.stats.LearnMisses++
			if !m.failOpen {
				m.failOpen = true
				m.opens++
			}
			return
		}
	}
	m.insert(key, id, now+m.ttl)
	m.stats.Learned++
	m.inserts++
	m.failOpen = false
}

// ingress mirrors Switch.forward for an unfiltered, unmirrored switch whose
// every port has a NIC attached.
func (m *refCAM) ingress(ev TapEvent) {
	f, vlan := ev.Frame, m.vlanOf[ev.Port]
	wire := uint64(ev.WireLen)
	m.stats.BytesByType[f.Type] += wire
	m.learn(ev.Port, vlan, f.Src, ev.At)
	if !f.Dst.IsMulticast() {
		if e, ok := m.cam[camKey{vlan: vlan, mac: f.Dst}]; ok && e.expires > ev.At {
			if e.port != ev.Port {
				m.stats.Forwarded++
				m.stats.BytesOutByType[f.Type] += wire
			}
			return
		}
	}
	m.stats.Flooded++
	for id, v := range m.vlanOf {
		if id != ev.Port && v == vlan {
			m.stats.BytesOutByType[f.Type] += wire
		}
	}
}

// camOp is one step of a differential CAM run: a frame from one station,
// or an administrative flush, followed by a clock advance.
type camOp struct {
	flush   bool
	port    uint8
	srcIdx  uint8
	dstIdx  uint8 // 255 = broadcast
	advance uint16
}

// Generate implements quick.Generator. Twelve source MACs over two VLANs
// overfill an 8-entry CAM; advances are mostly short, sometimes longer
// than the 1 s TTL, so entries age out mid-stream.
func (camOp) Generate(r *rand.Rand, _ int) reflect.Value {
	op := camOp{
		flush:   r.Intn(16) == 0,
		port:    uint8(r.Intn(4)),
		srcIdx:  uint8(r.Intn(12)),
		dstIdx:  uint8(r.Intn(12)),
		advance: uint16(r.Intn(250)),
	}
	if r.Intn(4) == 0 {
		op.dstIdx = 255
	}
	if r.Intn(8) == 0 {
		op.advance = uint16(r.Intn(2500))
	}
	return reflect.ValueOf(op)
}

var _ quick.Generator = camOp{}

// TestPropertyCAMMatchesReferenceModel drives a real switch and the
// reference model with the same frame stream and demands, after every
// step, the same table slot by slot (so the same victims and learned
// ports), the same CAMLen, the same SwitchStats and the same telemetry
// counters, with random eviction on and off.
func TestPropertyCAMMatchesReferenceModel(t *testing.T) {
	const capacity, ttl = 8, time.Second
	run := func(ops []camOp, evict bool, seed int64) bool {
		s := sim.NewScheduler(seed)
		opts := []SwitchOption{WithCAMCapacity(capacity), WithCAMTTL(ttl)}
		if evict {
			opts = append(opts, WithCAMEvictRandom())
		}
		sw := NewSwitch(s, opts...)
		reg := telemetry.New()
		sw.Instrument(reg)
		m := &refCAM{
			cam:         make(map[camKey]refEntry),
			capacity:    capacity,
			ttl:         ttl,
			evictRandom: evict,
			rng:         sim.NewScheduler(seed),
			stats: SwitchStats{
				BytesByType:    make(map[frame.EtherType]uint64),
				BytesOutByType: make(map[frame.EtherType]uint64),
			},
		}
		nics := make([]*NIC, 4)
		gen := ethaddr.NewGen(1)
		for i := range nics {
			nics[i] = NewNIC(s, gen.SeqMAC())
			p := sw.AddPort()
			if i >= 2 {
				p.SetVLAN(2)
			}
			p.Attach(nics[i])
			m.vlanOf = append(m.vlanOf, p.VLAN())
		}
		sw.AddTap(m.ingress)

		for step, op := range ops {
			if op.flush {
				sw.FlushCAM()
				m.flush()
			} else {
				nics[op.port].Send(&frame.Frame{Dst: opMAC(op.dstIdx), Src: opMAC(op.srcIdx), Type: frame.TypeIPv4})
			}
			s.After(time.Duration(op.advance)*time.Millisecond, func() {})
			if err := s.Run(); err != nil {
				t.Log(err)
				return false
			}
			if err := m.diff(sw, reg); err != "" {
				t.Logf("step %d (%+v), evict=%v seed=%d: %s", step, op, evict, seed, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// diff compares the switch against the model and describes the first
// mismatch, or returns "".
func (m *refCAM) diff(sw *Switch, reg *telemetry.Registry) string {
	if len(sw.camOrder) != len(m.order) || len(sw.cam) != len(m.cam) {
		return fmt.Sprintf("table size %d (index %d), want %d", len(sw.camOrder), len(sw.cam), len(m.order))
	}
	for i, e := range sw.camOrder {
		want := m.cam[m.order[i]]
		if e.key != m.order[i] || e.port != want.port || e.expires != want.expires {
			return fmt.Sprintf("slot %d = %+v, want key %+v port %d expires %v", i, e, m.order[i], want.port, want.expires)
		}
		if sw.cam[e.key] != int32(i) {
			return fmt.Sprintf("index of %+v = %d, want slot %d", e.key, sw.cam[e.key], i)
		}
		if e.expires < sw.camMinExp {
			return fmt.Sprintf("slot %d expires %v before the bound %v", i, e.expires, sw.camMinExp)
		}
	}
	now := sw.sched.Now()
	live := 0
	for _, e := range m.cam {
		if e.expires > now {
			live++
		}
	}
	if got := sw.CAMLen(); got != live {
		return fmt.Sprintf("CAMLen = %d, want %d", got, live)
	}
	if got := sw.Stats(); !reflect.DeepEqual(got, m.stats) {
		return fmt.Sprintf("stats = %+v, want %+v", got, m.stats)
	}
	counters := []struct {
		name string
		got  uint64
		want uint64
	}{
		{"inserts", reg.Counter("switch_cam_inserts_total").Value(), m.inserts},
		{"expired evictions", reg.Counter("switch_cam_evictions_total", telemetry.L("reason", "expired")).Value(), m.evictExp},
		{"random evictions", reg.Counter("switch_cam_evictions_total", telemetry.L("reason", "random")).Value(), m.evictRand},
		{"learn misses", reg.Counter("switch_learn_misses_total").Value(), m.stats.LearnMisses},
		{"fail-open transitions", reg.Counter("switch_failopen_transitions_total").Value(), m.opens},
		{"forwarded", reg.Counter("switch_frames_forwarded_total").Value(), m.stats.Forwarded},
		{"flooded", reg.Counter("switch_frames_flooded_total").Value(), m.stats.Flooded},
	}
	for _, c := range counters {
		if c.got != c.want {
			return fmt.Sprintf("%s counter = %d, want %d", c.name, c.got, c.want)
		}
	}
	return ""
}
