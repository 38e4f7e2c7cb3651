package nvram

// Used reports bytes currently held by live records.
func (l *Log) Used() int { return l.used }
