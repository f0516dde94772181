package hybrid_test

import (
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/labnet"
	"repro/internal/schemes"
	"repro/internal/schemes/registry"
)

// Example shows the three-step deployment: build a LAN, deploy the hybrid
// guard onto it (its defaults seed the gateway's true binding), read
// incidents.
func Example() {
	lan := labnet.Default()
	gateway := lan.Gateway()

	guard, err := registry.Deploy(lan.Env(schemes.NewSink(), nil), registry.NameHybridGuard, nil)
	if err != nil {
		fmt.Println("deploy:", err)
		return
	}

	// An attacker claims the gateway's address.
	lan.Attacker.Poison(attack.VariantGratuitous,
		gateway.IP(), lan.Attacker.MAC(), lan.Victim().MAC(), lan.Victim().IP())
	if err := lan.Run(5 * time.Second); err != nil {
		fmt.Println("run:", err)
		return
	}

	inc, ok := incidentFor(guard, gateway.IP())
	fmt.Printf("incident found: %v\n", ok)
	fmt.Printf("confirmed by probing: %v\n", inc.Confirmed)
	fmt.Printf("suspect is the attacker: %v\n", inc.Suspect == lan.Attacker.MAC())
	// Output:
	// incident found: true
	// confirmed by probing: true
	// suspect is the attacker: true
}

// Example_protectVictim adds inline prevention on a host you control: the
// forged binding is quarantined, contradicted, and never committed.
func Example_protectVictim() {
	lan := labnet.Default()
	gateway, victim := lan.Gateway(), lan.Victim()

	_, err := registry.Deploy(lan.Env(schemes.NewSink(), nil), registry.NameHybridGuard,
		registry.P{"protectVictim": true})
	if err != nil {
		fmt.Println("deploy:", err)
		return
	}

	lan.Attacker.Poison(attack.VariantUnsolicitedReply,
		gateway.IP(), lan.Attacker.MAC(), victim.MAC(), victim.IP())
	if err := lan.Run(5 * time.Second); err != nil {
		fmt.Println("run:", err)
		return
	}

	mac, ok := victim.Cache().Lookup(gateway.IP())
	fmt.Printf("victim poisoned: %v\n", ok && mac == lan.Attacker.MAC())
	// Output:
	// victim poisoned: false
}
