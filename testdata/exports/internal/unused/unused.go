// Package unused is imported by nothing.
package unused

// Helper is called by nothing.
func Helper() {}
