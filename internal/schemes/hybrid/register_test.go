package hybrid_test

import (
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/ethaddr"
	"repro/internal/labnet"
	"repro/internal/schemes"
	_ "repro/internal/schemes/hybrid"
	"repro/internal/schemes/registry"
	"repro/internal/telemetry"
)

// guardLAN deploys hybrid-guard on the workbench (gateway seeded by
// default) with params overlaid. With a registry, the alert sink is
// instrumented the way the CLIs and the scenario engine instrument theirs.
func guardLAN(t *testing.T, reg *telemetry.Registry, params registry.P) (*labnet.LAN, *schemes.Sink, *registry.Instance) {
	t.Helper()
	l := labnet.Default()
	sink := schemes.NewSink()
	if reg != nil {
		sink.Instrument(reg)
	}
	inst, err := registry.Deploy(l.Env(sink, reg), registry.NameHybridGuard, params)
	if err != nil {
		t.Fatal(err)
	}
	return l, sink, inst
}

// incidentFor returns the guard's incident for ip, if any.
func incidentFor(inst *registry.Instance, ip ethaddr.IPv4) (registry.Incident, bool) {
	for _, inc := range inst.IncidentsFn() {
		if inc.IP == ip {
			return inc, true
		}
	}
	return registry.Incident{}, false
}

// countConfirmed counts the incidents active verification corroborated.
func countConfirmed(inst *registry.Instance) int {
	n := 0
	for _, inc := range inst.IncidentsFn() {
		if inc.Confirmed {
			n++
		}
	}
	return n
}

// mitm re-poisons the victim↔gateway pair at 1 Hz until stop, then ends
// the run.
func mitm(l *labnet.LAN, stop time.Duration) {
	gw, victim := l.Gateway(), l.Victim()
	l.Attacker.PoisonPeriodically(time.Second, victim.MAC(), victim.IP(), gw.MAC(), gw.IP())
	l.Sched.At(stop, func() { l.Attacker.StopPoisoning(); l.Sched.Stop() })
	_ = l.Run(time.Minute)
}

func TestDetectsAndConfirmsMITM(t *testing.T) {
	l, _, g := guardLAN(t, nil, nil)
	mitm(l, 10*time.Second)

	inc, ok := incidentFor(g, l.Gateway().IP())
	if !ok {
		t.Fatal("no incident for the poisoned gateway IP")
	}
	if !inc.Confirmed || !inc.Actionable {
		t.Fatalf("incident not confirmed by active verification: %+v", inc)
	}
	if inc.Suspect != l.Attacker.MAC() {
		t.Fatalf("suspect = %v", inc.Suspect)
	}
}

func TestIncidentAggregationDampsAlertFlood(t *testing.T) {
	l, _, g := guardLAN(t, nil, nil)
	// 30 seconds of 1 Hz re-poisoning: one incident, not thirty pages.
	mitm(l, 30*time.Second)

	var gwIncidents int
	for _, inc := range g.IncidentsFn() {
		if inc.IP == l.Gateway().IP() {
			gwIncidents++
			if inc.Alerts < 2 {
				t.Fatalf("incident should fold multiple alerts: %+v", inc)
			}
			if inc.LastAt <= inc.FirstAt {
				t.Fatalf("incident time range: %+v", inc)
			}
		}
	}
	if gwIncidents != 1 {
		t.Fatalf("gateway incidents = %d, want 1 aggregated", gwIncidents)
	}
}

func TestPassiveOnlyAblationMissesVerification(t *testing.T) {
	l, _, g := guardLAN(t, nil, registry.P{"active": false})
	gw := l.Gateway()
	l.Attacker.Poison(attack.VariantGratuitous, gw.IP(), l.Attacker.MAC(),
		l.Victim().MAC(), l.Victim().IP())
	if err := l.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	inc, ok := incidentFor(g, gw.IP())
	if !ok {
		t.Fatal("passive layer missed the flip-flop")
	}
	if inc.Confirmed {
		t.Fatal("nothing should be confirmed without the active layer")
	}
	// With nothing to corroborate against, every incident is actionable.
	if len(g.ActionableIncidents()) != len(g.IncidentsFn()) {
		t.Fatalf("passive-only incidents not actionable: %+v", g.IncidentsFn())
	}
}

func TestActiveOnlyAblationStillConfirms(t *testing.T) {
	l, _, g := guardLAN(t, nil, registry.P{"passive": false})
	gw := l.Gateway()
	l.Attacker.Poison(attack.VariantUnsolicitedReply, gw.IP(), l.Attacker.MAC(),
		l.Victim().MAC(), l.Victim().IP())
	if err := l.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	inc, ok := incidentFor(g, gw.IP())
	if !ok || !inc.Confirmed {
		t.Fatalf("active-only guard failed: %+v ok=%v", inc, ok)
	}
}

func TestActiveLayerNeedsMonitor(t *testing.T) {
	l := labnet.New(labnet.Config{WithAttacker: true})
	if _, err := registry.Deploy(l.Env(schemes.NewSink(), nil), registry.NameHybridGuard, nil); err == nil {
		t.Fatal("active layer deployed without a monitor appliance")
	}
	if _, err := registry.Deploy(l.Env(schemes.NewSink(), nil), registry.NameHybridGuard,
		registry.P{"active": false}); err != nil {
		t.Fatalf("passive-only guard needs no monitor: %v", err)
	}
}

func TestProtectVictimPreventsCommit(t *testing.T) {
	l, _, g := guardLAN(t, nil, registry.P{"protectVictim": true})
	gw := l.Gateway()
	l.Attacker.Poison(attack.VariantUnsolicitedReply, gw.IP(), l.Attacker.MAC(),
		l.Victim().MAC(), l.Victim().IP())
	if err := l.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if mac, ok := l.Victim().Cache().Lookup(gw.IP()); ok && mac == l.Attacker.MAC() {
		t.Fatal("protected host was poisoned")
	}
	inc, ok := incidentFor(g, gw.IP())
	if !ok || !inc.Confirmed {
		t.Fatal("prevention should still produce a confirmed incident")
	}
}

func TestCleanLANRaisesNothing(t *testing.T) {
	l, sink, g := guardLAN(t, nil, nil)
	l.SeedMutualCaches()
	if err := l.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n := len(g.IncidentsFn()); n != 0 {
		t.Fatalf("clean LAN produced %d incidents: %v", n, sink.Alerts())
	}
}

// TestPagesOnlyVerifiedAlerts checks the demotion: with the verifier
// running, the environment's sink sees the verifier's alerts but never the
// passive monitor's, which still fold into the incident.
func TestPagesOnlyVerifiedAlerts(t *testing.T) {
	l, sink, g := guardLAN(t, nil, nil)
	l.Attacker.Poison(attack.VariantGratuitous, l.Gateway().IP(), l.Attacker.MAC(),
		l.Victim().MAC(), l.Victim().IP())
	if err := l.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	if sink.Len() == 0 {
		t.Fatal("no alert reached the environment's sink")
	}
	for _, a := range sink.Alerts() {
		if a.Scheme == registry.NameArpwatch {
			t.Fatalf("demoted passive alert paged: %v", a)
		}
	}
	inc, _ := incidentFor(g, l.Gateway().IP())
	if inc.Alerts <= sink.Len() {
		t.Fatalf("passive evidence not folded: incident %+v, %d paged", inc, sink.Len())
	}
}

func TestIncidentsAreCopies(t *testing.T) {
	l, _, g := guardLAN(t, nil, nil)
	l.Attacker.Poison(attack.VariantGratuitous, l.Gateway().IP(), l.Attacker.MAC(),
		l.Victim().MAC(), l.Victim().IP())
	if err := l.Run(3 * time.Second); err != nil {
		t.Fatal(err)
	}
	incs := g.IncidentsFn()
	if len(incs) == 0 {
		t.Fatal("no incidents")
	}
	incs[0].Alerts = 999
	if fresh, _ := incidentFor(g, incs[0].IP); fresh.Alerts == 999 {
		t.Fatal("IncidentsFn aliases the guard's records")
	}
}

// schemeAlerts sums scheme_alerts_total per scheme label.
func schemeAlerts(reg *telemetry.Registry) map[string]uint64 {
	out := make(map[string]uint64)
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "scheme_alerts_total" {
			out[c.Labels["scheme"]] += c.Value
		}
	}
	return out
}

func TestGuardTelemetryAttribution(t *testing.T) {
	reg := telemetry.New()
	l, sink, _ := guardLAN(t, reg, registry.P{"protectVictim": true})
	l.Sched.Instrument(reg)
	mitm(l, 10*time.Second)

	if got := reg.Counter("guard_incidents_total", telemetry.L("state", "opened")).Value(); got == 0 {
		t.Fatal("no incidents opened")
	}
	if got := reg.Counter("guard_incidents_total", telemetry.L("state", "confirmed")).Value(); got == 0 {
		t.Fatal("incident confirmation not counted")
	}

	// Layer attribution: both the demoted passive layer and the active
	// verifier contributed evidence, and the verifier probed.
	alerts := schemeAlerts(reg)
	if alerts[registry.NameArpwatch] == 0 {
		t.Fatalf("passive layer contributed nothing: %v", alerts)
	}
	if alerts[registry.NameActiveProbe] == 0 {
		t.Fatalf("active layer contributed nothing: %v", alerts)
	}
	var probes uint64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == "scheme_probes_sent_total" {
			probes += c.Value
		}
	}
	if probes == 0 {
		t.Fatal("verifier sent no probes")
	}

	// Every paged alert is counted exactly once.
	paged := make(map[string]uint64)
	for _, a := range sink.Alerts() {
		paged[a.Scheme]++
	}
	for scheme, n := range paged {
		if alerts[scheme] != n {
			t.Errorf("scheme_alerts_total{scheme=%q} = %d, %d paged", scheme, alerts[scheme], n)
		}
	}

	// Confirmation shows up in the event log too.
	var confirmed bool
	for _, ev := range reg.Events().Events() {
		if ev.Component == "guard" && ev.Message == "incident confirmed" {
			confirmed = true
		}
	}
	if !confirmed {
		t.Fatal("no 'incident confirmed' event logged")
	}
}

func TestGuardConfirmedCountedOnce(t *testing.T) {
	reg := telemetry.New()
	l, _, g := guardLAN(t, reg, nil)
	// Long re-poisoning window: many verify-failed alerts fold into one
	// incident, but the confirmed transition must count exactly once.
	mitm(l, 20*time.Second)

	inc, ok := incidentFor(g, l.Gateway().IP())
	if !ok || !inc.Confirmed {
		t.Fatalf("incident = %+v ok=%v", inc, ok)
	}
	// One transition per confirmed incident, no matter how many
	// verify-failed alerts folded into each.
	want := uint64(countConfirmed(g))
	got := reg.Counter("guard_incidents_total", telemetry.L("state", "confirmed")).Value()
	if got != want {
		t.Fatalf("confirmed transitions = %d, want %d (one per confirmed incident)", got, want)
	}
	if inc.Alerts < 2 {
		t.Fatalf("expected repeated alerts to fold: %+v", inc)
	}
}

func TestGuardWithoutTelemetryUnchanged(t *testing.T) {
	l, _, g := guardLAN(t, nil, registry.P{"protectVictim": true})
	mitm(l, 5*time.Second)
	if _, ok := incidentFor(g, l.Gateway().IP()); !ok {
		t.Fatal("guard stopped working without telemetry")
	}
}
