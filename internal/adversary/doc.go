// Package adversary holds every attack of the threat model (§2.1, §3),
// each mounted through a seam the deployed pipeline already has: the
// lying control plane wraps a core.EpochSink (NewAdversarySink), the
// lying data plane is a netsim.Adversary a HOP wears (netsim.Wear), and
// the lying origin is a dissem.BundleTamper its server installs
// (dissem.Server.SetTamper). The evaluation, the facade and vpm-sim's
// -lie import it; no daemon does (TestLoadBearingSet), so a deployed
// verifier ships no code that forges, withholds or equivocates.
// netsim.Suppressor is the one attack still outside: the frozen
// benchmark names it.
package adversary
