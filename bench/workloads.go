package main

// workloads lists the four scenarios. Names are final: later issues cite
// them. Every later performance claim in this repo is a row of one of these.
var workloads = []workloadDef{
	{
		Name:   "steady_sessions",
		Why:    "a fleet's whole life: 15 of 16 rounds are session MACs, so transport, state-row persistence and audit sealing do the work; quote crypto, IMA replay and policy checks do almost none",
		Hosts:  4,
		Agents: 64,
		Warmup: 16,
		New:    newSteady,
	},
	{
		Name:   "update_day",
		Why:    "the paper's daily update loop: policy generation, staged rollout and attesting new measurements load core, mirror, policy, rollout, ima and tpm; session rounds escalate, bypassing the fast path",
		Hosts:  2,
		Agents: 2,
		Warmup: 8,
		New:    newUpdate,
	},
	{
		Name:   "restart_recover",
		Why:    "graceful stop then cold start every cycle: the read and recovery side of store, audit, dsse and verifier state plus fleet-wide full quotes, so an append-side gain bought with dearer recovery shows",
		Hosts:  2,
		Agents: 8,
		Warmup: 32,
		New:    newRestart,
	},
	{
		Name:   "fleet_churn",
		Why:    "two-node cluster under a sliding fleet spec with a machine going bad every 4th cycle: replication, reconciliation, the revocation path and the outbox, which the other three never touch",
		Hosts:  6,
		Agents: 16,
		Warmup: 16,
		New:    newChurn,
	},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, d := range workloads {
		if d.Name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}
