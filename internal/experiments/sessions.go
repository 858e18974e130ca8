package experiments

import (
	"qoserve/internal/metrics"
	"qoserve/internal/model"
	"qoserve/internal/qos"
	"qoserve/internal/sched"
	"qoserve/internal/session"
	"qoserve/internal/sim"
	"qoserve/internal/workload"
)

func init() {
	register("sessions", "Extension — closed-loop multi-turn conversations vs open-loop trace replay", runSessions)
}

// runSessions contrasts the paper's open-loop trace replay against a
// closed-loop conversational workload with matching average token demand:
// in the closed loop, follow-up turns wait for responses (self-throttling)
// and prompts accumulate the conversation, so tails behave differently —
// the serving-system effect flattened by open-loop evaluation.
func runSessions(e *Env) error {
	mc := model.Llama3_8B_A100_TP1()
	prof := session.Profile{
		Class: qos.Class{Name: "Q1", Kind: qos.Interactive,
			SLO: qos.SLO{TTFT: 6 * sim.Second, TBT: 50 * sim.Millisecond}},
		FirstPrompt: workload.TokenDist{P50: 900, P90: 3000},
		FollowUp:    workload.TokenDist{P50: 80, P90: 300},
		Decode:      workload.TokenDist{P50: 40, P90: 300},
		MeanTurns:   4,
		ThinkTime:   5 * sim.Second,
	}

	sessions := int(0.6 * e.Duration().Seconds()) // 0.6 sessions/s
	if sessions < 40 {
		sessions = 40
	}

	e.printf("%-14s%10s%12s%14s%14s%14s\n",
		"Scheduler", "Turns", "Viol(%)", "TTFT p50(s)", "TTFT p99(s)", "CtxP50(tok)")
	rows := []namedFactory{
		{"Sarathi-EDF", e.Sarathi(sched.EDF, 256)},
		{"QoServe", e.QoServe(mc)},
	}
	var closedTurnRate float64
	for _, r := range rows {
		res, err := session.Run(mc, r.factory(), session.Spec{
			Profile:    prof,
			SessionQPS: 0.6,
			Sessions:   sessions,
			Seed:       e.Seed + 25,
		}, sim.Forever)
		if err != nil {
			return err
		}
		sum := res.Summary
		e.printf("%-14s%10d%12.2f%14.2f%14.2f%14d\n", r.label,
			res.Turns, 100*sum.ViolationRate(metrics.All),
			sum.TTFTQuantile(metrics.All, 0.5),
			sum.TTFTQuantile(metrics.All, 0.99),
			res.FinalContextP50)
		closedTurnRate = float64(res.Turns) / sum.End.Seconds()
	}

	// Matched open-loop replay: same turn rate, prompts drawn from a
	// single (flattened) distribution around the closed loop's median
	// context.
	e.printf("\nOpen-loop replay at the closed loop's turn rate (%.2f turns/s):\n", closedTurnRate)
	tiers := workload.EqualTiers([]qos.Class{prof.Class})
	ds := workload.Dataset{Name: "flattened",
		Prompt: workload.TokenDist{P50: 1300, P90: 3600},
		Decode: prof.Decode,
	}
	for _, r := range rows {
		trace, err := workload.Generate(workload.Spec{
			Dataset:  ds,
			Tiers:    tiers,
			Arrivals: workload.Poisson{QPS: closedTurnRate},
			Requests: int(closedTurnRate * e.Duration().Seconds()),
			Seed:     e.Seed + 25,
		})
		if err != nil {
			return err
		}
		sum, err := RunJudged(mc, 1, r.factory, trace)
		if err != nil {
			return err
		}
		e.printf("%-14s%10d%12.2f%14.2f%14.2f%14s\n", r.label,
			len(trace), 100*sum.ViolationRate(metrics.All),
			sum.TTFTQuantile(metrics.All, 0.5),
			sum.TTFTQuantile(metrics.All, 0.99), "-")
	}
	e.printf("\n(The closed loop is the harder workload at the same turn rate: follow-up\nturns arrive in correlated clumps and carry the accumulated conversation, so\ndeadline-only scheduling degrades while QoServe's slack exploitation absorbs\nit — another behaviour open-loop replay flattens.)\n")
	return nil
}
