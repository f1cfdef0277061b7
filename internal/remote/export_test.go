package remote

// Helpers shared with the external test package (replicated_test.go).
var (
	StartPipelined = startPipelined
	Compressible   = compressible
	ReadEpoch      = readEpoch
)
