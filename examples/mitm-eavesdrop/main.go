// MITM eavesdropping: a client talks to a server; an attacker mounts the
// full bidirectional poisoning + relay attack and silently reads the
// session. The example runs the same scenario three ways — undefended,
// detected by the hybrid guard, and prevented by host middleware — and
// compares how many payload bytes the attacker captured in each.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/labnet"
	"repro/internal/schemes"
	_ "repro/internal/schemes/hybrid" // registers hybrid-guard
	"repro/internal/schemes/middleware"
	"repro/internal/schemes/registry"
	"repro/internal/traffic"
)

// outcome is one run's result.
type outcome struct {
	sniffedBytes uint64
	delivered    uint64
	detected     bool
	prevented    bool
}

func runScenario(protect, detect bool) outcome {
	lan := labnet.Default()
	server, client := lan.Gateway(), lan.Victim()

	// The server is the LAN's gateway and the client its victim: the guard
	// seeds both bindings and shields the client; the server gets its own
	// middleware.
	var guard *registry.Instance
	if detect || protect {
		sink := schemes.NewSink()
		var err error
		guard, err = registry.Deploy(lan.Env(sink, nil), registry.NameHybridGuard,
			registry.P{"seedVictim": true, "protectVictim": protect})
		if err != nil {
			log.Fatal(err)
		}
		if protect {
			middleware.New(lan.Sched, sink, server)
		}
	}

	// The session: the client posts "credentials" every 200ms.
	flow := traffic.StartFlow(lan.Sched, 1, client, server, 200*time.Millisecond,
		traffic.WithResponse(), traffic.WithPayloadLen(128))

	// The attack starts two seconds in.
	lan.Sched.At(2*time.Second, func() {
		lan.Attacker.PoisonPeriodically(time.Second,
			client.MAC(), client.IP(), server.MAC(), server.IP())
		lan.Attacker.RelayBetween(client.MAC(), client.IP(), server.MAC(), server.IP())
	})
	if err := lan.Run(12 * time.Second); err != nil {
		log.Fatal(err)
	}
	flow.Stop()

	out := outcome{
		sniffedBytes: lan.Attacker.Stats().Sniffed,
		delivered:    flow.Stats().Delivered,
	}
	for _, inc := range guard.ActionableIncidents() {
		if inc.IP == server.IP() {
			out.detected = true
		}
	}
	if mac, ok := client.Cache().Lookup(server.IP()); !ok || mac != lan.Attacker.MAC() {
		out.prevented = true
	}
	return out
}

func main() {
	fmt.Println("client↔server session under a full-duplex ARP MITM")
	fmt.Println()
	for _, cfg := range []struct {
		name            string
		protect, detect bool
	}{
		{"undefended", false, false},
		{"guard detecting", false, true},
		{"guard + host middleware", true, true},
	} {
		out := runScenario(cfg.protect, cfg.detect)
		fmt.Printf("%-24s attacker read %5d bytes | %2d datagrams delivered | detected=%v | client stayed clean=%v\n",
			cfg.name, out.sniffedBytes, out.delivered, out.detected, out.prevented)
	}
	fmt.Println()
	fmt.Println("the relay preserves connectivity, so the victim notices nothing —")
	fmt.Println("only the middleware run keeps the session out of the attacker's hands")
}
