// Random well-formed system generation for fuzz-style differential
// testing: RandomSystem deterministically derives a small closed system —
// environment, parallel composition of bounded recursive components, and
// the six Fig. 9 property instances — from a seed. The generator is the
// scenario-diversity engine behind the differential test suite: full vs
// incremental exploration equivalence, width-invariant verdicts, and
// replay-validated witnesses are all asserted over its output.
package systems

import (
	"fmt"
	"math/rand"

	"effpi/internal/types"
	"effpi/internal/verify"
)

// RandomSystem deterministically generates the seed-th member of a family
// of small, well-formed, closed systems. The same seed always yields the
// same system (the generator draws from a seeded PRNG and never consults
// the clock), and every generated system passes verify.Admissible: a
// guarded, finite-control π-type without proc.
//
// The shape space covers the verification engine's interesting paths:
// plain channels (unit payloads), carrier channels transmitting channel
// references (the dependent-type tracking of Ex. 4.3 — received
// references may be used for output), internal choice (unions), bounded
// µ-recursion, and components that terminate, loop, or block forever —
// so generated systems deadlock, starve and misbehave in diverse ways,
// which is exactly what a witness-extraction test suite wants.
func RandomSystem(seed int64) *System {
	for attempt := 0; ; attempt++ {
		g := &generator{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(attempt)))}
		s := g.system(seed)
		if verify.Admissible(s.Env, s.Type) == nil {
			return s
		}
		if attempt >= 100 {
			// The grammar below is admissible by construction; reaching
			// this means the generator and the well-formedness rules have
			// drifted apart, which a test must catch loudly.
			panic(fmt.Sprintf("systems: RandomSystem(%d) cannot produce an admissible system", seed))
		}
	}
}

// RandomSystems generates seeds 0..n-1.
func RandomSystems(n int) []*System {
	out := make([]*System, n)
	for i := range out {
		out[i] = RandomSystem(int64(i))
	}
	return out
}

type generator struct {
	rng      *rand.Rand
	plain    []string // ChanIO[Unit] channels
	carriers []string // ChanIO[ChanIO[Unit]] channels
	fresh    int
}

func (g *generator) freshVar(prefix string) string {
	g.fresh++
	return fmt.Sprintf("%s%d", prefix, g.fresh)
}

func (g *generator) pick(xs []string) string { return xs[g.rng.Intn(len(xs))] }

func (g *generator) system(seed int64) *System {
	env := types.NewEnv()
	g.plain = nil
	g.carriers = nil
	unit := types.Unit{}
	tokT := types.ChanIO{Elem: unit}

	nPlain := 2 + g.rng.Intn(3) // 2..4
	for i := 0; i < nPlain; i++ {
		name := fmt.Sprintf("c%d", i)
		g.plain = append(g.plain, name)
		env = env.MustExtend(name, tokT)
	}
	for i := 0; i < g.rng.Intn(2); i++ { // 0..1 carriers
		name := fmt.Sprintf("k%d", i)
		g.carriers = append(g.carriers, name)
		env = env.MustExtend(name, types.ChanIO{Elem: tokT})
	}

	nComp := 2 + g.rng.Intn(3) // 2..4
	comps := make([]types.Type, nComp)
	for i := range comps {
		comps[i] = g.component()
	}

	return &System{
		Name: fmt.Sprintf("Rand(%d)", seed),
		Env:  env,
		Type: types.ParOf(comps...),
		Props: closedProps([]verify.Property{
			{Kind: verify.DeadlockFree},
			{Kind: verify.EventualOutput, Channels: []string{g.plain[0]}},
			{Kind: verify.Forwarding, From: g.plain[0], To: g.plain[1]},
			{Kind: verify.NonUsage, Channels: []string{g.plain[0]}},
			{Kind: verify.Reactive, From: g.plain[0]},
			{Kind: verify.Responsive, From: g.plain[0]},
		}),
		// Expected is left nil: verdicts are unknown by construction; the
		// differential tests compare engines against each other and
		// replay-validate every FAIL instead.
	}
}

// component generates one sequential (Par-free) component: recursive with
// probability ~0.6, else a finite protocol. Components never contain Par,
// so finite control holds trivially.
func (g *generator) component() types.Type {
	depth := 2 + g.rng.Intn(2) // 2..3
	if g.rng.Intn(5) < 3 {
		// µt.body: body starts unguarded — the grammar only emits the
		// recursion variable under an i/o prefix.
		return types.Rec{Var: "t", Body: g.body(depth, true, false)}
	}
	return g.body(depth, false, false)
}

// body generates a process type of bounded depth. rec reports that the
// surrounding component is a µt-recursion whose variable the leaves may
// recurse on; guarded reports that an i/o prefix has been crossed since
// the binder, the precondition for emitting the recursion variable
// (types.CheckGuarded).
func (g *generator) body(d int, rec, guarded bool) types.Type {
	if d <= 0 {
		return g.leaf(rec, guarded)
	}
	roll := g.rng.Intn(10)
	switch {
	case roll < 3: // output on a plain channel
		return types.Out{Ch: tv(g.pick(g.plain)), Payload: types.Unit{}, Cont: thunk(g.body(d-1, rec, true))}
	case roll < 6: // input on a plain channel
		return types.In{Ch: tv(g.pick(g.plain)), Cont: types.Pi{
			Var: g.freshVar("u"), Dom: types.Unit{}, Cod: g.body(d-1, rec, true)}}
	case roll < 7 && len(g.carriers) > 0: // send a channel reference
		return types.Out{Ch: tv(g.pick(g.carriers)), Payload: tv(g.pick(g.plain)), Cont: thunk(g.body(d-1, rec, true))}
	case roll < 8 && len(g.carriers) > 0: // receive a reference, maybe respond on it
		z := g.freshVar("z")
		var cont types.Type
		if g.rng.Intn(2) == 0 {
			// The dependent-type payoff: the received reference is used
			// for output, which the type-level substitution tracks.
			cont = types.Out{Ch: types.Var{Name: z}, Payload: types.Unit{}, Cont: thunk(g.body(d-1, rec, true))}
		} else {
			cont = g.body(d-1, rec, true)
		}
		return types.In{Ch: tv(g.pick(g.carriers)), Cont: types.Pi{
			Var: z, Dom: types.ChanIO{Elem: types.Unit{}}, Cod: cont}}
	case roll < 9: // internal choice
		return types.Union{L: g.body(d-1, rec, guarded), R: g.body(d-1, rec, guarded)}
	default:
		return g.leaf(rec, guarded)
	}
}

// leaf terminates a branch: the recursion variable when permitted (and
// usually taken, so recursive components actually loop), nil otherwise.
func (g *generator) leaf(rec, guarded bool) types.Type {
	if rec && guarded && g.rng.Intn(4) > 0 {
		return types.RecVar{Name: "t"}
	}
	return types.Nil{}
}
