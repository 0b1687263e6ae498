package core

// Test-only exports for the external core_test package. The driver
// equivalence tests live there because they check outputs with
// internal/verify, which imports this package.
var (
	SparseTestInstances   = sparseTestInstances
	PresortedKeysInstance = presortedKeysInstance
	BuildKeys             = buildKeys
)

// SealSortSchedule re-derives a SortSchedule's bucket sizes from its count
// rows, as PlanCache.StoreSort does, so a test can alter a cached schedule
// consistently.
func SealSortSchedule(ss *SortSchedule) bool { return ss.seal() }
