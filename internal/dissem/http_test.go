package dissem

// BundleCount returns how many payloads the server currently retains.
func (s *Server) BundleCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.bundles)
}

// Base returns the sequence number of the oldest retained payload —
// everything below it was pruned by DropThrough.
func (s *Server) Base() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base
}
