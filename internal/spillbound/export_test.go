package spillbound

// Test spaces shared with the external test package, whose tests run
// SpillBound and AlignedBound side by side.
var (
	Build2D = build2D
	Build3D = build3D
	Build4D = build4D
)
