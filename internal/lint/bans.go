package lint

// This file is the single source of truth for the repository's
// dependency-cone invariants. The importhygiene analyzer, the runtime
// mirror TestTransportFree (internal/engine/hygiene_test.go), and the
// CI bmatchvet step all read these definitions — there is deliberately
// no second copy anywhere (the old shell-grep CI step was deleted in
// favour of this package).

// transportConeRoots are the packages whose entire dependency cones
// must stay transport-free: the library facade, the engine (sessions,
// pool, job registry), and the streaming drivers.
var transportConeRoots = []string{
	"repro",
	"repro/internal/engine",
	"repro/internal/stream",
}

// bannedTransportImports are the packages that must not appear anywhere
// in a transport cone: raw sockets, HTTP, and the repository's own HTTP
// transport layer.
var bannedTransportImports = []string{
	"net",
	"net/http",
	"repro/internal/httpapi",
}

// solverCone are the packages whose computation must be bit-identical
// across worker counts, transport backends, and runs: the deterministic
// solver cone. maprange, nondeterminism, and ctxpropagation enforce
// their invariants inside exactly these packages. mpctransport is
// deliberately absent — it is a transport backend (sockets, deadlines),
// deterministic only in its delivered payloads, which the Transport
// contract tests pin at runtime.
var solverCone = []string{
	"repro/internal/augment",
	"repro/internal/core",
	"repro/internal/exact",
	"repro/internal/frac",
	"repro/internal/matching",
	"repro/internal/mpc",
	"repro/internal/round",
	"repro/internal/stream",
	"repro/internal/weighted",
}

// TransportConeRoots returns the packages whose dependency cones must
// stay transport-free.
func TransportConeRoots() []string { return append([]string(nil), transportConeRoots...) }

// BannedTransportImports returns the imports banned from those cones.
func BannedTransportImports() []string { return append([]string(nil), bannedTransportImports...) }

// InSolverCone reports whether path is a solver-cone package. Matching
// is exact, not by prefix: repro/internal/mpc/mpctransport is a
// transport backend outside the cone.
func InSolverCone(path string) bool {
	for _, p := range solverCone {
		if path == p {
			return true
		}
	}
	return false
}

// isTransportConeRoot reports whether path is one of the cone roots;
// the importhygiene analyzer falls back to it for single-package
// fixture runs, where no whole-program dependency graph exists.
func isTransportConeRoot(path string) bool {
	for _, p := range transportConeRoots {
		if path == p {
			return true
		}
	}
	return false
}
