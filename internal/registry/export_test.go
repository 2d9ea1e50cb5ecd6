package registry

// Specs hands the external conformance suite the registration table,
// in presentation order.
func Specs() []*spec { return specs }
