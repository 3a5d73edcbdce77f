package jobs

// OpenOneAtATime opens a manager that runs one job at a time, so a test
// can hold that job and watch the order the queued ones dispatch in.
func OpenOneAtATime(cfg Config) (*Manager, error) { return open(cfg, 1) }
