// Package systems builds the type-level models of the verification
// benchmarks in Fig. 9 of the paper: the payment-with-audit service of §1
// composed with clients, Dijkstra's dining philosophers (deadlocking and
// fixed variants), Savina-style ping-pong pairs (with and without channel
// passing), and token rings. Each System carries the property instances
// of the six Fig. 9 columns and the verdicts the paper reports, used as
// golden expectations by the test suite.
package systems

import (
	"fmt"

	"effpi/internal/types"
	"effpi/internal/verify"
)

// System is one Fig. 9 benchmark row.
type System struct {
	Name string
	Env  *types.Env
	Type types.Type
	// Props holds one property instance per Fig. 9 column, in column
	// order (deadlock-free, ev-usage, forwarding, non-usage, reactive,
	// responsive).
	Props []verify.Property
	// Expected maps each property kind to the verdict published in
	// Fig. 9.
	Expected map[verify.Kind]bool
	// PaperStates is the state count reported in Fig. 9 (0 if the paper
	// only gives a bound).
	PaperStates int
}

func tv(n string) types.Type { return types.Var{Name: n} }

func thunk(t types.Type) types.Type { return types.Thunk(t) }

func out(ch string, payload, cont types.Type) types.Type {
	return types.Out{Ch: tv(ch), Payload: payload, Cont: thunk(cont)}
}

func in(ch, param string, dom, cont types.Type) types.Type {
	return types.In{Ch: tv(ch), Cont: types.Pi{Var: param, Dom: dom, Cod: cont}}
}

// PaymentAudit builds the §1 payment service with auditing, composed with
// an auditor and n looping clients (the "Pay & audit + n clients" rows).
//
//	service  = µt. i[m, Π(p: co[str]) ( o[p, str, t] ∨ o[aud, p̱, o[p, str, t]] )]
//	auditor  = µt. i[aud, Π(a: co[str]) t]
//	client_i = µt. o[m, c̱ᵢ, i[cᵢ, Π(r: str) t]]
//
// The service either rejects (replies immediately) or accepts (audits by
// forwarding the payer's channel, then replies) — the dependent types
// track the payer's reply channel p across the audit, exactly the Akka
// Typed use case of Fig. 1.
func PaymentAudit(clients int) *System {
	respT := types.Str{}
	payT := types.ChanO{Elem: respT} // a Pay message carries the reply channel

	env := types.NewEnv()
	env = env.MustExtend("m", types.ChanIO{Elem: payT})
	env = env.MustExtend("aud", types.ChanIO{Elem: payT})
	clientNames := make([]string, clients)
	for i := range clientNames {
		clientNames[i] = fmt.Sprintf("c%d", i+1)
		env = env.MustExtend(clientNames[i], types.ChanIO{Elem: respT})
	}

	reply := func(cont types.Type) types.Type {
		return types.Out{Ch: tv("p"), Payload: respT, Cont: thunk(cont)}
	}
	service := types.Rec{Var: "t", Body: in("m", "p", payT,
		types.Union{
			L: reply(types.RecVar{Name: "t"}), // reject
			R: out("aud", tv("p"), // accept: audit, then reply
				reply(types.RecVar{Name: "t"})),
		})}

	auditor := types.Rec{Var: "t", Body: in("aud", "a", payT, types.RecVar{Name: "t"})}

	comps := []types.Type{service, auditor}
	for _, c := range clientNames {
		client := types.Rec{Var: "t", Body: out("m", tv(c),
			in(c, "r", respT, types.RecVar{Name: "t"}))}
		comps = append(comps, client)
	}

	paperStates := map[int]int{8: 3328, 10: 13312, 12: 53248}
	return &System{
		Name: fmt.Sprintf("Pay & audit + %d clients", clients),
		Env:  env,
		Type: types.ParOf(comps...),
		Props: closedProps([]verify.Property{
			{Kind: verify.DeadlockFree, Channels: []string{"m"}},
			{Kind: verify.EventualOutput, Channels: []string{"aud"}},
			{Kind: verify.Forwarding, From: "m", To: "aud"},
			{Kind: verify.NonUsage, Channels: []string{"aud"}},
			{Kind: verify.Reactive, From: "m"},
			{Kind: verify.Responsive, From: "m"},
		}),
		Expected: map[verify.Kind]bool{
			verify.DeadlockFree:   true,
			verify.EventualOutput: true,
			verify.Forwarding:     false,
			verify.NonUsage:       false,
			verify.Reactive:       true,
			verify.Responsive:     true,
		},
		PaperStates: paperStates[clients],
	}
}

// DiningPhilosophers builds n philosophers and n forks. Forks are token
// processes: offer the fork, await its return. In the deadlocking variant
// every philosopher grabs the left fork first; the fixed variant breaks
// the symmetry (philosopher 0 grabs right first), the classic resource-
// ordering solution. The types cover locking/mutex protocols, which the
// paper highlights as beyond confluent session types (§6).
//
//	fork_i = µt. o[fᵢ, (), i[fᵢ, Π(u: ()) t]]
//	phil_i = µt. i[first, Π(u) i[second, Π(u′) o[first, (), o[second, (), t]]]]
func DiningPhilosophers(n int, deadlock bool) *System {
	env := types.NewEnv()
	forks := make([]string, n)
	for i := range forks {
		forks[i] = fmt.Sprintf("f%d", i)
		env = env.MustExtend(forks[i], types.ChanIO{Elem: types.Unit{}})
	}
	unit := types.Unit{}

	var comps []types.Type
	for i := 0; i < n; i++ {
		fork := types.Rec{Var: "t", Body: out(forks[i], unit,
			in(forks[i], "u", unit, types.RecVar{Name: "t"}))}
		comps = append(comps, fork)
	}
	for i := 0; i < n; i++ {
		first, second := forks[i], forks[(i+1)%n]
		if !deadlock && i == 0 {
			first, second = second, first // symmetry-breaking fix
		}
		phil := types.Rec{Var: "t", Body: in(first, "u", unit,
			in(second, "u2", unit,
				out(first, unit,
					out(second, unit, types.RecVar{Name: "t"}))))}
		comps = append(comps, phil)
	}

	variant := "no deadlock"
	if deadlock {
		variant = "deadlock"
	}
	paperStates := map[int]int{4: 4096, 5: 32768, 6: 262144}
	return &System{
		Name: fmt.Sprintf("Dining philos. (%d, %s)", n, variant),
		Env:  env,
		Type: types.ParOf(comps...),
		Props: closedProps([]verify.Property{
			{Kind: verify.DeadlockFree},
			{Kind: verify.EventualOutput, Channels: []string{"f0"}},
			{Kind: verify.Forwarding, From: "f0", To: "f1"},
			{Kind: verify.NonUsage, Channels: []string{"f0"}},
			{Kind: verify.Reactive, From: "f0"},
			{Kind: verify.Responsive, From: "f0"},
		}),
		Expected: map[verify.Kind]bool{
			verify.DeadlockFree:   !deadlock,
			verify.EventualOutput: true,
			verify.Forwarding:     false,
			verify.NonUsage:       false,
			verify.Reactive:       false,
			verify.Responsive:     false,
		},
		PaperStates: paperStates[n],
	}
}

// PingPongPairs builds n independent request/response pairs. The plain
// variant exchanges string messages on fixed channels (no channel
// passing); the responsive variant is Ex. 2.2's channel-passing protocol,
// where each pinger sends its own mailbox and the ponger replies through
// the received reference — which is what makes responsiveness provable.
func PingPongPairs(n int, responsive bool) *System {
	env := types.NewEnv()
	var comps []types.Type
	str := types.Str{}
	for i := 1; i <= n; i++ {
		z := fmt.Sprintf("z%d", i)
		y := fmt.Sprintf("y%d", i)
		if responsive {
			env = env.MustExtend(z, types.ChanIO{Elem: types.ChanO{Elem: str}})
			env = env.MustExtend(y, types.ChanIO{Elem: str})
			pinger := out(z, tv(y), in(y, "r", str, types.Nil{}))
			ponger := types.In{Ch: tv(z), Cont: types.Pi{Var: "replyTo", Dom: types.ChanO{Elem: str},
				Cod: types.Out{Ch: tv("replyTo"), Payload: str, Cont: thunk(types.Nil{})}}}
			comps = append(comps, pinger, ponger)
		} else {
			env = env.MustExtend(z, types.ChanIO{Elem: str})
			env = env.MustExtend(y, types.ChanIO{Elem: str})
			pinger := out(z, str, in(y, "r", str, types.Nil{}))
			ponger := in(z, "s", str, out(y, str, types.Nil{}))
			comps = append(comps, pinger, ponger)
		}
	}

	variant := ""
	if responsive {
		variant = ", responsive"
	}
	paperStates := 0
	if responsive {
		paperStates = map[int]int{6: 46656, 8: 1679616}[n]
	} else {
		paperStates = map[int]int{6: 4096, 8: 65536, 10: 1048576}[n]
	}
	return &System{
		Name: fmt.Sprintf("Ping-pong (%d pairs%s)", n, variant),
		Env:  env,
		Type: types.ParOf(comps...),
		Props: closedProps([]verify.Property{
			{Kind: verify.DeadlockFree},
			{Kind: verify.EventualOutput, Channels: []string{"y1"}},
			{Kind: verify.Forwarding, From: "z1", To: "y1"},
			{Kind: verify.NonUsage, Channels: []string{"z1"}},
			{Kind: verify.Reactive, From: "z1"},
			{Kind: verify.Responsive, From: "z1"},
		}),
		Expected: map[verify.Kind]bool{
			verify.DeadlockFree:   true,
			verify.EventualOutput: true,
			verify.Forwarding:     false,
			verify.NonUsage:       false,
			verify.Reactive:       false,
			verify.Responsive:     responsive,
		},
		PaperStates: paperStates,
	}
}

// Ring builds n members passing tokens around a ring; tokens are channel
// references, so each hop is a channel transmission tracked by the
// dependent types (which is what makes the forwarding property provable).
//
//	member_i = µt. i[cᵢ, Π(z: cio[()]) o[c_{i+1 mod n}, ẕ, t]]
//
// The first `tokens` members start holding a token.
func Ring(n, tokens int) *System {
	env := types.NewEnv()
	chans := make([]string, n)
	tokT := types.ChanIO{Elem: types.Unit{}}
	for i := range chans {
		chans[i] = fmt.Sprintf("c%d", i)
		env = env.MustExtend(chans[i], types.ChanIO{Elem: tokT})
	}
	tokNames := make([]string, tokens)
	for j := range tokNames {
		tokNames[j] = fmt.Sprintf("tok%d", j+1)
		env = env.MustExtend(tokNames[j], tokT)
	}

	var comps []types.Type
	for i := 0; i < n; i++ {
		next := chans[(i+1)%n]
		member := types.Rec{Var: "t", Body: types.In{Ch: tv(chans[i]),
			Cont: types.Pi{Var: "z", Dom: tokT,
				Cod: types.Out{Ch: tv(next), Payload: tv("z"), Cont: thunk(types.RecVar{Name: "t"})}}}}
		if i < tokens {
			// This member starts holding a token: pass it on, then behave
			// as a regular member.
			comps = append(comps, types.Out{Ch: tv(next), Payload: tv(tokNames[i]), Cont: thunk(member)})
		} else {
			comps = append(comps, member)
		}
	}

	name := fmt.Sprintf("Ring (%d elements)", n)
	if tokens > 1 {
		name = fmt.Sprintf("Ring (%d elements, %d tokens)", n, tokens)
	}
	paperStates := map[[2]int]int{
		{10, 1}: 2048, {15, 1}: 65536, {10, 3}: 4096, {15, 3}: 131072,
	}
	return &System{
		Name: name,
		Env:  env,
		Type: types.ParOf(comps...),
		Props: closedProps([]verify.Property{
			{Kind: verify.DeadlockFree},
			{Kind: verify.EventualOutput, Channels: []string{"c1"}},
			{Kind: verify.Forwarding, From: "c1", To: "c2"},
			{Kind: verify.NonUsage, Channels: []string{"c1"}},
			{Kind: verify.Reactive, From: "c1"},
			{Kind: verify.Responsive, From: "c1"},
		}),
		Expected: map[verify.Kind]bool{
			verify.DeadlockFree:   true,
			verify.EventualOutput: true,
			verify.Forwarding:     true,
			verify.NonUsage:       false,
			verify.Reactive:       true,
			verify.Responsive:     false,
		},
		PaperStates: paperStates[[2]int{n, tokens}],
	}
}

// Fig9Systems returns all nineteen benchmark rows of Fig. 9 in the
// paper's order.
func Fig9Systems() []*System {
	return []*System{
		PaymentAudit(8),
		PaymentAudit(10),
		PaymentAudit(12),
		DiningPhilosophers(4, true),
		DiningPhilosophers(4, false),
		DiningPhilosophers(5, true),
		DiningPhilosophers(5, false),
		DiningPhilosophers(6, true),
		DiningPhilosophers(6, false),
		PingPongPairs(6, false),
		PingPongPairs(6, true),
		PingPongPairs(8, false),
		PingPongPairs(8, true),
		PingPongPairs(10, false),
		PingPongPairs(10, true),
		Ring(10, 1),
		Ring(15, 1),
		Ring(10, 3),
		Ring(15, 3),
	}
}

// LargeSystems returns benchmark rows beyond the sizes published in
// Fig. 9: the paper's table stops where the mCRL2 pipeline got slow,
// but this checker has headroom for another philosopher, another
// ping-pong pair and a wider ring. Verdict expectations follow the same
// schemas as the paper's rows (they are size-independent); PaperStates
// is 0 because the paper does not report these instances. The rows are slow by unit-test
// standards — gate them behind testing.Short(); cmd/mcbench prints them
// only under -suite large or all.
func LargeSystems() []*System {
	return []*System{
		DiningPhilosophers(7, true),
		DiningPhilosophers(7, false),
		DiningPhilosophers(8, false),
		DiningPhilosophers(8, true),
		DiningPhilosophers(9, false),
		DiningPhilosophers(10, false),
		DiningPhilosophers(10, true),
		PingPongPairs(12, false),
		Ring(16, 1),
		Ring(16, 4),
	}
}

// closedProps marks every property for closed-composition verification:
// the Fig. 9 systems are self-contained, so all interactions are internal
// synchronisations (see verify.Property.Closed).
func closedProps(props []verify.Property) []verify.Property {
	for i := range props {
		props[i].Closed = true
	}
	return props
}
