package route

// Test fixtures shared with the external route_test package, whose tests
// import packages that themselves import route.

var (
	PressureMesh       = pressureMesh
	CongestedLocalMesh = congestedLocalMesh
	SameResults        = sameResults
)
