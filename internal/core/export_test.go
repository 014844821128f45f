package core

// WithBatchSize exposes the batch-size option to the external test
// package, whose equivalence matrices check that the estimate is the
// same at every batch size.
var WithBatchSize = withBatchSize
