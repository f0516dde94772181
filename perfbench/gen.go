package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/faults"
	"repro/internal/labnet"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/schemes/registry"
	"repro/internal/trace"
)

// The generators turn a seed into a workload's inputs. Which LAN size,
// duration, defense, policy, attack and fault plan make up each spec is a
// fixed balanced design: every level of every factor appears equally
// often, paired the same way under every seed. The seed picks each spec's
// own simulation seed, and with it the addresses, timings and fault draws
// of every trial. Pools of different seeds therefore cost about the same to
// run, and seed-to-seed differences in the timings measure the program,
// not the draw.

// designSeed fixes the design's pairings.
const designSeed = 1

// factor repeats values to length n and shuffles them with rng, so each
// value appears n/len(values) times (the first n%len(values) once more).
func factor[T any](rng *rand.Rand, n int, values []T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = values[i%len(values)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// deployment is one defense arrangement: standalone schemes or a
// correlated a+b+c stack.
type deployment struct {
	schemes []string
	stack   []string
}

func (d deployment) apply(spec *scenario.Spec) {
	for _, name := range d.schemes {
		spec.Schemes = append(spec.Schemes, scenario.SchemeSpec{Name: name})
	}
	if len(d.stack) > 0 {
		st := registry.Stack{}
		for _, name := range d.stack {
			st.Schemes = append(st.Schemes, registry.Selection{Name: name})
		}
		spec.Stacks = append(spec.Stacks, st)
	}
}

// lanMixDeployments is every registered scheme on its own plus a few
// defense-in-depth stacks.
func lanMixDeployments() []deployment {
	var out []deployment
	for _, name := range registry.Names() {
		out = append(out, deployment{schemes: []string{name}})
	}
	for _, st := range [][]string{
		{registry.NameDAI, registry.NameArpwatch, registry.NamePortSecurity},
		{registry.NameArpwatch, registry.NameSnortLike, registry.NameActiveProbe},
		{registry.NameHybridGuard, registry.NameFloodDetect, registry.NameStaticARP},
	} {
		out = append(out, deployment{stack: st})
	}
	return out
}

var lanMixAttacks = []scenario.AttackSpec{
	{Type: "mitm"},
	{Type: "poison", Variant: "gratuitous"},
	{Type: "poison", Variant: "unsolicited-reply"},
	{Type: "poison", Variant: "request-spoof"},
	{Type: "poison", Variant: "reply-race"},
	{Type: "port-steal", PeriodSeconds: 0.5},
	{Type: "scan", Count: 60},
	{Type: "cache-flood", Count: 150},
	{Type: "blackhole"},
}

var policies = []string{"naive", "reply-only", "no-overwrite", "solicited-only"}

// faultPlan returns the kind-th fault plan for a flat LAN of hosts
// stations; kinds 0 to 5 are no plan, so a third of the specs carry one.
func faultPlan(kind int, hosts int) json.RawMessage {
	link := hosts - 1 // a bystander's link: the victim and gateway stay up
	plans := []string{
		``, ``, ``, ``, ``, ``,
		`{"events":[{"type":"gilbert-elliott","atSeconds":3,"durationSeconds":40,"pGoodBad":0.05,"pBadGood":0.3,"lossBad":0.5}]}`,
		`{"events":[{"type":"duplicate","atSeconds":0,"prob":0.1,"maxDelayMillis":2},{"type":"cam-flush","atSeconds":30}]}`,
		fmt.Sprintf(`{"events":[{"type":"reorder","atSeconds":0,"prob":0.1,"maxDelayMillis":3},{"type":"link-flap","atSeconds":15,"durationSeconds":5,"link":%d}]}`, link),
	}
	return json.RawMessage(plans[kind%len(plans)])
}

// lanMixHosts and lanMixSeconds are the cost factorial: every
// (hosts, duration) pair appears lanMixPool/48 times in every pool.
var (
	lanMixHosts   = []int{64, 48, 32, 24, 16, 12, 8, 4}
	lanMixSeconds = []float64{300, 240, 180, 120, 90, 60}
)

const lanMixPool = 96

// genLANMix generates the lan-mix pool: flat-LAN specs over the
// (hosts, duration) factorial with the defenses, policies, attacks and
// fault plans spread across it.
func genLANMix(seed int64) []*scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	design := rand.New(rand.NewSource(designSeed))
	deps := factor(design, lanMixPool, lanMixDeployments())
	pols := factor(design, lanMixPool, policies)
	atks := factor(design, lanMixPool, lanMixAttacks)
	kinds := factor(design, lanMixPool, []int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	specs := make([]*scenario.Spec, lanMixPool)
	for i := range specs {
		hosts := lanMixHosts[i%len(lanMixHosts)]
		secs := lanMixSeconds[(i/len(lanMixHosts))%len(lanMixSeconds)]
		atk := atks[i]
		atk.AtSeconds = float64(5 + design.Intn(16))
		spec := &scenario.Spec{
			Seed:            1 + rng.Int63n(1<<40),
			Hosts:           hosts,
			Policy:          pols[i],
			DurationSeconds: secs,
			Attacks:         []scenario.AttackSpec{atk},
		}
		deps[i].apply(spec)
		if plan := faultPlan(kinds[i], hosts); len(plan) > 0 {
			spec.Faults = mustPlan(plan)
		}
		specs[i] = spec
	}
	return specs
}

// mustPlan decodes a generated fault plan; the plans are literals above.
func mustPlan(raw json.RawMessage) *faults.Plan {
	p, err := faults.Load(bytes.NewReader(raw))
	if err != nil {
		panic(err)
	}
	return p
}

// camCapacity is labnet's default CAM size, the table cam-flood overflows.
const camCapacity = 1024

// camFloodPool is the cam-flood pool size. Flood sizes run geometrically
// from 30× the CAM down to 2× across the pool, so the operations' costs
// form a continuum rather than a few clusters, and the median operation
// does not jump between clusters from run to run.
const camFloodPool = 32

// camFloodRefill is how many new stations the late cache flood announces:
// enough to reclaim every expired flood entry and fill the table again.
const camFloodRefill = 1500

// genCAMFlood generates the cam-flood pool. Each spec floods the CAM with
// 2–30× its capacity in random source MACs on a LAN of 4 or 12 hosts under
// flood-detect and arpwatch. Unguarded, the flood fills the table and
// drives the switch fail-open; once the flood entries have aged out
// (300 s), a cache flood from fresh MACs makes the full table reclaim
// expired entries and fill up again. On every fourth spec port security
// guards the access ports and drops the forged sources before the switch
// learns them, as in Figure 5.
func genCAMFlood(seed int64) []*scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	design := rand.New(rand.NewSource(designSeed))
	pols := factor(design, camFloodPool, policies)
	specs := make([]*scenario.Spec, camFloodPool)
	for i := range specs {
		frac := float64(camFloodPool-1-i) / (camFloodPool - 1)
		flood := int(math.Round(2 * camCapacity * math.Pow(15, frac)))
		hosts := []int{12, 4}[(i/4)%2]
		start := float64(2 + design.Intn(6))
		refill := start + 310
		spec := &scenario.Spec{
			Seed:            1 + rng.Int63n(1<<40),
			Hosts:           hosts,
			Policy:          pols[i],
			DurationSeconds: refill + 5,
			Attacks: []scenario.AttackSpec{
				{AtSeconds: start, Type: "cam-flood", Count: flood},
				{AtSeconds: refill, Type: "cache-flood", Count: camFloodRefill},
			},
		}
		dep := deployment{schemes: []string{registry.NameFloodDetect, registry.NameArpwatch}}
		if i%4 == 3 {
			dep.schemes = append(dep.schemes, registry.NamePortSecurity)
		}
		dep.apply(spec)
		specs[i] = spec
	}
	return specs
}

// The campus factorial: LAN count × total population.
var (
	campusLANs  = []int{64, 48, 32, 16}
	campusHosts = []int{1_000_000, 500_000, 250_000, 100_000}
)

// genCampus generates the campus pool: routed multi-LAN campuses of 10⁵ to
// 10⁶ hosts, the LANs below a split point under a dai+arpwatch stack and
// the rest under arpwatch+snort-like (the split set per spec by the
// design), an attacker LAN running MITM, and a trunk partition plus a
// router flush.
func genCampus(seed int64, workers int) []*scenario.Spec {
	rng := rand.New(rand.NewSource(seed))
	design := rand.New(rand.NewSource(designSeed))
	n := len(campusLANs) * len(campusHosts)
	specs := make([]*scenario.Spec, n)
	noSeed := json.RawMessage(`{"seedGateway":false}`)
	for i := range specs {
		lans := campusLANs[i%len(campusLANs)]
		total := campusHosts[i/len(campusLANs)]
		split := 1 + design.Intn(lans-1)
		atk := design.Intn(lans)
		specs[i] = &scenario.Spec{
			Seed:            1 + rng.Int63n(1<<40),
			DurationSeconds: 30,
			Campus: &scenario.CampusSpec{
				LANs:        lans,
				HostsPerLAN: total / lans,
				Workers:     workers,
				AttackerLAN: atk,
				Deployments: []scenario.LANDeployment{
					{LANs: fmt.Sprintf("0-%d", split-1), Stacks: []registry.Stack{{Schemes: []registry.Selection{
						{Name: registry.NameDAI}, {Name: registry.NameArpwatch, Params: noSeed}}}}},
					{LANs: fmt.Sprintf("%d-%d", split, lans-1), Stacks: []registry.Stack{{Schemes: []registry.Selection{
						{Name: registry.NameArpwatch, Params: noSeed}, {Name: registry.NameSnortLike}}}}},
				},
			},
			Attacks: []scenario.AttackSpec{{AtSeconds: 8, Type: "mitm"}},
			Faults: mustPlan(json.RawMessage(fmt.Sprintf(`{"events":[
				{"type":"trunk-partition","atSeconds":12,"durationSeconds":6,"trunk":"trunk:%d-*"},
				{"type":"router-flush","atSeconds":20,"lan":"lan:*"}]}`, atk))),
		}
	}
	return specs
}

// The replay capture: a flat LAN of replayHosts stations whose hosts each
// send a UDP datagram to the gateway every second, with a MITM from 10 s
// and a cache flood at 30 s, captured for replaySeconds.
const (
	replayHosts   = 48
	replaySeconds = 240
)

// genCapture simulates the replay workload's LAN and returns its capture
// as NDJSON, the record count, and the gateway and victim identities. The
// stations' and flood's addresses are part of the fixed design; the seed
// sets when each host sends. With addresses drawn per seed, allocations
// per replay moved by 12% between seeds for the same amount of traffic.
func genCapture(seed int64) (ndjson []byte, records int, gw, victim replay.Station, err error) {
	l := labnet.New(labnet.Config{Seed: designSeed, Hosts: replayHosts, WithAttacker: true})
	capture := trace.NewCapture(1 << 20)
	l.Switch.AddTap(capture.Tap())
	g, v := l.Gateway(), l.Victim()
	rng := rand.New(rand.NewSource(seed))
	for _, h := range l.Hosts[1:] {
		h := h
		l.Sched.At(time.Duration(rng.Int63n(int64(time.Second))), func() {
			l.Sched.Every(time.Second, func() { h.SendUDP(g.IP(), 2000, 80, []byte("work")) })
		})
	}
	l.Sched.At(10*time.Second, func() {
		l.Attacker.PoisonPeriodically(2*time.Second, v.MAC(), v.IP(), g.MAC(), g.IP())
		l.Attacker.RelayBetween(v.MAC(), v.IP(), g.MAC(), g.IP())
	})
	l.Sched.At(30*time.Second, func() {
		l.Attacker.FloodCache(ethaddr.NewGen(designSeed+17), l.Subnet, 400, time.Millisecond)
	})
	if err := l.Run(replaySeconds * time.Second); err != nil {
		return nil, 0, gw, victim, err
	}
	if capture.Dropped() != 0 {
		return nil, 0, gw, victim, fmt.Errorf("capture ring dropped %d records", capture.Dropped())
	}
	var buf bytes.Buffer
	if err := capture.WriteNDJSON(&buf); err != nil {
		return nil, 0, gw, victim, err
	}
	gw = replay.Station{IP: g.IP(), MAC: g.MAC()}
	victim = replay.Station{IP: v.IP(), MAC: v.MAC()}
	return buf.Bytes(), capture.Len(), gw, victim, nil
}
