// File-driven stream replay: drives a SharedStreamContext (and through it
// every attached engine) from a StreamReader instead of an in-memory
// TemporalDataset. Memory is O(window): the only state besides the
// reader's current record is the driver's FIFO of live edges, which is
// needed to deliver each expiration's edge record. The reader is a source
// of the DriveStream loop (core/stream_driver-inl.h) — the same loop
// RunStream runs over a dataset — so file replay and in-memory replay
// produce byte-identical match streams (enforced by
// tests/io_roundtrip_test.cpp and tests/stream_driver_test.cpp).
#ifndef TCSM_IO_REPLAY_H_
#define TCSM_IO_REPLAY_H_

#include "common/status.h"
#include "core/shared_context.h"
#include "core/stream_driver.h"
#include "io/stream_reader.h"

namespace tcsm {

/// The driver's one options struct, under the name file replay callers
/// know it by. `window = 0` takes the header's window.
using ReplayOptions = StreamConfig;

/// Replays `reader` (already Init()ed by the caller, who needed its
/// schema to build the engines) into `context`. Returns the same
/// StreamResult as RunStream, or a Status for malformed input / an
/// unresolvable window. The reader must be positioned before the first
/// data record, i.e. Next() must not have been called yet.
StatusOr<StreamResult> ReplayStream(StreamReader* reader,
                                    const ReplayOptions& options,
                                    SharedStreamContext* context);

}  // namespace tcsm

#endif  // TCSM_IO_REPLAY_H_
