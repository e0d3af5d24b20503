//go:build !race

package harness

// raceBuild is false outside the race detector: the PDES sweep covers
// every cell of its families.
const raceBuild = false
