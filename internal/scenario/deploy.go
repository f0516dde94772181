// The scenario engine's half of the topology-neutral deployment plane:
// one code path installs schemes and stacks onto any []*labnet.Site —
// a flat LAN renders one site, a campus renders one per segment — so the
// flat and routed worlds can never drift apart in how they deploy.
package scenario

import (
	"fmt"

	"repro/internal/labnet"
	"repro/internal/schemes/registry"
)

// deployment accumulates what the plane installed: every scheme instance,
// stack members included (for incident accounting), and every stack
// instance (for correlation accounting).
type deployment struct {
	insts      []*registry.Instance
	stackInsts []*registry.StackInstance
}

// deployOnto installs the schemes and stacks onto every given site, in
// spec order, schemes before stacks. Construction-only schemes are skipped
// here — their host options were applied while the topology was assembled.
func deployOnto(sites []*labnet.Site, specs []SchemeSpec, stacks []registry.Stack, d *deployment) error {
	for _, s := range specs {
		f, ok := registry.Lookup(s.Name)
		if !ok {
			return registry.UnknownSchemeError(s.Name)
		}
		if f.ConstructionOnly() {
			continue
		}
		for _, site := range sites {
			inst, err := registry.Deploy(site.Env(), s.Name, s.Params)
			if err != nil {
				return siteErr(site, err)
			}
			d.insts = append(d.insts, inst)
		}
	}
	for _, st := range stacks {
		for _, site := range sites {
			si, err := registry.DeployStack(site.Env(), st)
			if err != nil {
				return siteErr(site, err)
			}
			d.stackInsts = append(d.stackInsts, si)
			d.insts = append(d.insts, si.Members...)
		}
	}
	return nil
}

// siteErr labels a deployment error with its segment on routed topologies;
// a flat LAN's single site (no router) keeps the bare error.
func siteErr(s *labnet.Site, err error) error {
	if s.Router == nil {
		return err
	}
	return fmt.Errorf("lan %d: %w", s.Index, err)
}

// guardResults sums incident accounting over every instance that
// aggregates alerts into incidents.
func (d *deployment) guardResults(res *Result) {
	for _, inst := range d.insts {
		if inst.IncidentsFn == nil {
			continue
		}
		for _, inc := range inst.IncidentsFn() {
			res.GuardIncidents++
			if inc.Confirmed {
				res.GuardConfirmed++
			}
		}
	}
}

// stackResults aggregates correlation stats by stack label — a campus
// deploys one instance per segment, and the campus-wide answer is their
// sum.
func (d *deployment) stackResults() []StackResult {
	idx := make(map[string]int)
	var out []StackResult
	for _, si := range d.stackInsts {
		cs := si.Correlation()
		label := si.Stack.Label()
		j, ok := idx[label]
		if !ok {
			j = len(out)
			idx[label] = j
			out = append(out, StackResult{Stack: label})
		}
		out[j].Forwarded += cs.Forwarded
		out[j].Suppressed += cs.Suppressed
		out[j].CrossScheme += cs.CrossScheme
	}
	return out
}
