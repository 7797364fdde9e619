package trace

// Decoder is the incremental ingest contract every input format
// implements: a Decoder sits on a (possibly still growing) byte stream
// and turns whatever is currently available into normalized record
// batches. The native binary StreamReader — the framer behind Read and
// ReadBatched, polled instead of read to the end — is one
// implementation; the foreign-format importers under internal/ingest
// provide others. Both the batch load path (drain once, then Done) and
// the -follow tailing loop (Poll per tick) consume this one interface,
// so a new input format becomes loadable and tailable by implementing
// it once.
type Decoder interface {
	// Poll drains the bytes currently available from the underlying
	// reader, decodes every complete record into batches delivered to
	// emit in stream order, and buffers any partial tail for the next
	// Poll. It returns the number of records decoded this call. Decode
	// errors (and errors returned by emit) are sticky: every subsequent
	// call returns the same error.
	Poll(emit func(*RecordBatch) error) (int, error)

	// Consumed returns the number of stream bytes fully decoded so far.
	// The offset is always record-aligned, so a follower can compare it
	// (plus Buffered) against the file size to detect truncation.
	Consumed() int64

	// Buffered returns the number of bytes read but not yet decodable —
	// the partial record waiting for the producer's next write.
	Buffered() int

	// Done reports whether the stream ended cleanly at a record
	// boundary: nil when every byte read so far was decoded, a
	// descriptive error when a partial record remains buffered or the
	// stream never held a single complete record.
	Done() error
}

// StreamReader is the native binary format's Decoder.
var _ Decoder = (*StreamReader)(nil)
