package wal

import "elmo/internal/telemetry"

// Metrics bundles the log's telemetry handles. The latency histograms
// reuse the control-plane bucket layout (1µs..5s), which brackets both
// an in-page-cache flush and a slow platter fsync.
type Metrics struct {
	appends   *telemetry.Counter
	batches   *telemetry.Counter
	fsyncs    *telemetry.Counter
	segments  *telemetry.Counter
	truncated *telemetry.Counter
	bytes     *telemetry.Counter

	batchRecords *telemetry.Histogram
	queueLat     *telemetry.Histogram
	flushLat     *telemetry.Histogram
	commitLat    *telemetry.Histogram
}

// NewMetrics registers the WAL metric families in reg.
func NewMetrics(reg *telemetry.Registry) *Metrics {
	lat := reg.HistogramVec("elmo_wal_latency_seconds",
		"Commit latency by stage, from Commit entry: queue (behind the fsync already running), flush (own commit round), commit (entry to durable).",
		telemetry.LatencyBuckets, "stage")
	return &Metrics{
		appends: reg.Counter("elmo_wal_appends_total",
			"Records written to segments."),
		batches: reg.Counter("elmo_wal_batches_total",
			"Commit rounds that advanced the durable LSN."),
		fsyncs: reg.Counter("elmo_wal_fsyncs_total",
			"fsync calls issued (one per commit round plus segment rotations)."),
		segments: reg.Counter("elmo_wal_segments_created_total",
			"Segment files created."),
		truncated: reg.Counter("elmo_wal_segments_truncated_total",
			"Segment files removed by snapshot truncation."),
		bytes: reg.Counter("elmo_wal_bytes_total",
			"Frame bytes written to segments."),
		batchRecords: reg.Histogram("elmo_wal_batch_records",
			"LSNs made durable per commit round.",
			telemetry.ExponentialBuckets(1, 2, 13)),
		queueLat:  lat.With("queue"),
		flushLat:  lat.With("flush"),
		commitLat: lat.With("commit"),
	}
}
