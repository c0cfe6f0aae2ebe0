package experiments

// CachedScenarios returns how many net scenarios s retains, for the
// external tests that drive a suite through another package.
func CachedScenarios(s *Suite) int { return s.scenarios.Len() }
