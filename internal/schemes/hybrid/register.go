// Package hybrid registers hybrid-guard, the layered deployment the paper's
// comparative analysis motivates: no single scheme dominates, so a practical
// deployment puts a zero-cost passive monitor (arpwatch, for coverage) and
// an active verifier (active-probe, for precision under churn) behind one
// mirror-port tap, optionally adds quarantine middleware on a host under
// administrative control, and folds every alert about one address into a
// single incident.
package hybrid

import (
	"fmt"
	"time"

	"repro/internal/ethaddr"
	"repro/internal/netsim"
	"repro/internal/schemes"
	"repro/internal/schemes/activeprobe"
	"repro/internal/schemes/arpwatch"
	"repro/internal/schemes/middleware"
	"repro/internal/schemes/registry"
	"repro/internal/stack"
	"repro/internal/telemetry"
)

// GuardParams configures the hybrid guard deployment.
type GuardParams struct {
	// Passive runs the demoted arpwatch corroboration layer.
	Passive bool `json:"passive"`
	// Active runs the probe verifier (requires a monitor appliance).
	Active bool `json:"active"`
	// SeedGateway pre-loads the gateway's true binding.
	SeedGateway bool `json:"seedGateway"`
	// SeedVictim pre-loads the conventional victim's binding.
	SeedVictim bool `json:"seedVictim"`
	// ProtectVictim additionally installs quarantine middleware on the
	// victim.
	ProtectVictim bool `json:"protectVictim"`
	// HoldDownSeconds tunes passive alert suppression; 0 keeps the
	// arpwatch default (20s).
	HoldDownSeconds float64 `json:"holdDownSeconds"`
	// VerifyWindowSeconds tunes the probe deadline; 0 keeps the
	// active-probe default (0.5s).
	VerifyWindowSeconds float64 `json:"verifyWindowSeconds"`
}

func init() {
	registry.Register(registry.Factory{
		Name:        registry.NameHybridGuard,
		Package:     "hybrid",
		Description: "hybrid passive-monitor + active-verifier pipeline with incident correlation",
		Deployment:  registry.Deployment{Vantage: registry.VantageMirrorPort, Cost: registry.CostPerLAN},
		DefaultParams: func() any {
			return &GuardParams{Passive: true, Active: true, SeedGateway: true}
		},
		// Handle is nil; incidents surface through IncidentsFn.
		Deploy: deploy,
	})
}

// deploy composes the layers. Verifier and middleware alerts fold into
// incidents and forward to env.Sink. With the verifier present, arpwatch is
// demoted to a corroboration source on a private sink: its flip-flops fold
// into incidents but do not page — only verified failures do. That is the
// hybrid's point: arpwatch coverage without arpwatch's churn pages.
func deploy(env *registry.Env, params any) (*registry.Instance, error) {
	p := params.(*GuardParams)
	if p.Active && env.Monitor == nil {
		return nil, fmt.Errorf("hybrid-guard's active layer needs a monitor appliance")
	}
	inc := &incidents{verifying: p.Active, byIP: make(map[ethaddr.IPv4]int)}
	if reg := env.Telemetry; reg != nil {
		inc.events = reg.Events()
		inc.opened = reg.Counter("guard_incidents_total", telemetry.L("state", "opened"))
		inc.confirmed = reg.Counter("guard_incidents_total", telemetry.L("state", "confirmed"))
	}
	out := schemes.NewSink()
	out.OnAlert(func(a schemes.Alert) {
		inc.fold(a)
		env.Sink.Report(a)
	})
	var seeds []*stack.Host
	if p.SeedGateway {
		seeds = append(seeds, env.Gateway())
	}
	if p.SeedVictim {
		seeds = append(seeds, env.Victim())
	}

	var layers []netsim.TapFunc
	if p.Passive {
		passive := out
		if p.Active {
			passive = schemes.NewSink()
			passive.OnAlert(inc.fold)
			if env.Telemetry != nil {
				// The demoted monitor's alerts never reach env.Sink, so
				// attribute them on its own sink.
				passive.Instrument(env.Telemetry)
			}
		}
		var opts []arpwatch.Option
		if p.HoldDownSeconds > 0 {
			opts = append(opts, arpwatch.WithHoldDown(time.Duration(p.HoldDownSeconds*float64(time.Second))))
		}
		w := arpwatch.New(env.Sched, passive, opts...)
		for _, h := range seeds {
			w.Seed(h.IP(), h.MAC())
		}
		layers = append(layers, w.Observe)
	}
	if p.Active {
		var opts []activeprobe.Option
		if p.VerifyWindowSeconds > 0 {
			opts = append(opts, activeprobe.WithVerifyWindow(time.Duration(p.VerifyWindowSeconds*float64(time.Second))))
		}
		pr := activeprobe.New(env.Sched, out, env.Monitor, opts...)
		if env.Telemetry != nil {
			pr.Instrument(env.Telemetry)
		}
		for _, h := range seeds {
			pr.Seed(h.IP(), h.MAC())
		}
		layers = append(layers, pr.Observe)
	}
	env.AddTap(registry.NameHybridGuard, func(ev netsim.TapEvent) {
		for _, observe := range layers {
			observe(ev)
		}
	})
	if p.ProtectVictim {
		mw := middleware.New(env.Sched, out, env.Victim())
		if env.Telemetry != nil {
			mw.Instrument(env.Telemetry)
		}
	}
	return &registry.Instance{IncidentsFn: inc.snapshot}, nil
}

// incidents folds every alert about one IP into a single record, in
// first-alert order, deduplicating the flood a periodic poisoner would
// otherwise produce.
type incidents struct {
	// verifying marks a deployment with the active layer: only confirmed
	// incidents are actionable then.
	verifying bool
	list      []registry.Incident
	byIP      map[ethaddr.IPv4]int

	// Telemetry handles; nil (no-op) without a registry.
	events    *telemetry.EventLog
	opened    *telemetry.Counter
	confirmed *telemetry.Counter
}

// fold merges one alert into its incident.
func (in *incidents) fold(a schemes.Alert) {
	i, ok := in.byIP[a.IP]
	if !ok {
		i = len(in.list)
		in.byIP[a.IP] = i
		in.list = append(in.list, registry.Incident{IP: a.IP, FirstAt: a.At, Actionable: !in.verifying})
		in.opened.Inc()
		if in.events != nil {
			in.events.Log(telemetry.SevInfo, "guard", "incident opened",
				"ip", a.IP.String(), "scheme", a.Scheme)
		}
	}
	inc := &in.list[i]
	inc.LastAt = a.At
	inc.Alerts++
	if !a.NewMAC.IsZero() {
		inc.Suspect = a.NewMAC
	}
	if (a.Kind == schemes.AlertVerifyFailed || a.Kind == schemes.AlertConflict) && !inc.Confirmed {
		inc.Confirmed, inc.Actionable = true, true
		in.confirmed.Inc()
		if in.events != nil {
			in.events.Log(telemetry.SevWarn, "guard", "incident confirmed",
				"ip", a.IP.String(), "suspect", inc.Suspect.String(), "scheme", a.Scheme)
		}
	}
}

// snapshot returns a copy of every incident.
func (in *incidents) snapshot() []registry.Incident {
	return append([]registry.Incident(nil), in.list...)
}
