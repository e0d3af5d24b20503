//go:build race

package harness

// raceBuild is true when the tests run under the race detector, which
// slows a simulation ~10x: the PDES sweep then covers one cell per family.
const raceBuild = true
