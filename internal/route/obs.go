package route

import "gdsiiguard/internal/obs"

// routeSeconds times each Route call end to end (grid build, initial
// routing, rip-up passes, finalize).
var routeSeconds = obs.Default().Histogram(
	"gdsiiguard_route_seconds",
	"Global-route wall time per Route call.", nil).With()

// warmDeclineTotal counts warm-start declines by reason, so a
// routes_warm: 0 on a real design is diagnosable from /metrics: no_donor
// (no compatible donor route cached), dirty_frac (too many dirty nets to be
// worth replaying), victims (donor was reshaped by rip-up), netlist (net
// count mismatch), ndr (NDR scale mismatch), grid (GCell grid mismatch),
// layers (fewer than 2 routing layers).
var warmDeclineTotal = obs.Default().Counter(
	"gdsiiguard_route_warm_decline_total",
	"Warm-start route declines by reason (the route fell back to a cold run).",
	"reason")

// CountWarmDecline records a warm-start decline. Warm calls it for every
// precondition it checks itself; callers that decline before reaching Warm
// (no donor cached, dirty fraction too high) record their reason through
// the same counter.
func CountWarmDecline(reason string) { warmDeclineTotal.With(reason).Inc() }

// specNetsTotal counts how the parallel router committed each net of a
// parallel routing pass: accepted (its speculative route was applied),
// reexecuted (it was speculated, but its read rectangles overlapped an
// earlier commit of its chunk, so it was routed again on the live grid) or
// sequential (its chunk was not speculated, because speculation would not
// have paid off on the chunk before). Every net lands in exactly one of the
// three, once per pass, so accepted/(accepted+reexecuted) is how often
// speculation pays off and reexecuted is the work it wasted.
var specNetsTotal = obs.Default().Counter(
	"gdsiiguard_route_spec_nets_total",
	"Nets routed by the parallel router, by commit outcome.",
	"outcome")

var (
	specNetsAccepted   = specNetsTotal.With("accepted")
	specNetsReexecuted = specNetsTotal.With("reexecuted")
	specNetsSequential = specNetsTotal.With("sequential")
)
