package fleet

// Verifications returns how many payload signatures Run has checked:
// one per (domain, epoch) on an honest fleet.
func (v *Verifier) Verifications() int64 {
	if v.client == nil {
		return 0
	}
	return v.client.Verifications()
}
