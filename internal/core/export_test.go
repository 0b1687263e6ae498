package core

// Test-only exports for the external core_test package. The driver
// equivalence tests live there because they check outputs with
// internal/verify, which imports this package.
var (
	SparseTestInstances   = sparseTestInstances
	PresortedKeysInstance = presortedKeysInstance
	BuildKeys             = buildKeys
)
