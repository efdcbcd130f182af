package core

// The helpers reliability_test.go (package core_test) shares with this
// package's own tests.
var (
	ConstVersions  = testVersions
	EnsembleConfig = ensembleConfig
	MixtureParams  = mixtureParams
)
