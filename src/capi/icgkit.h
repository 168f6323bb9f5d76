/*
 * icgkit C ABI — the embeddable, stable, flat-C interface to the
 * streaming beat-to-beat engine.
 *
 * This is the libretro-style core interface the firmware and host-
 * language bindings link against: opaque session handles driven by
 *
 *   icg_session_create / icg_session_push / icg_session_poll_beat /
 *   icg_session_finish / icg_session_checkpoint / icg_session_restore /
 *   icg_session_destroy
 *
 * over fixed-layout plain-old-data structs, with the numeric backend
 * (double reference arithmetic vs the FPU-less Q1.31 firmware path)
 * selected at runtime per session.
 *
 * ABI rules (see docs/ARCHITECTURE.md, "The C ABI boundary"):
 *
 *  - This header parses as plain C89 (CI compiles it with
 *    `gcc -std=c89 -fsyntax-only`); every type is fixed-width and
 *    every struct is laid out with explicit 8-byte-first ordering so
 *    there are no padding holes and the layout is identical across
 *    compilers on any LP64/LLP64 platform.
 *  - The caller states the ABI revision it was compiled against in
 *    icg_config.abi_version; icg_session_create refuses a mismatch
 *    with ICG_ERR_ABI_MISMATCH instead of guessing. Any layout change
 *    to these structs bumps ICG_ABI_VERSION.
 *  - Struct fields are append-only within an ABI revision; `reserved`
 *    fields must be zero (create refuses otherwise), which is what
 *    lets a later minor revision assign them meaning.
 *  - No exception ever crosses this boundary: every C++ failure is
 *    caught and mapped to a negative icg_status; icg_last_error()
 *    returns the human-readable detail of this thread's most recent
 *    failure.
 *  - No heap allocation happens after icg_session_create on the push/
 *    poll/checkpoint hot path once the session has warmed up (the
 *    zero-steady-state-allocation property of the C++ engine, verified
 *    by the allocation-counter test against this ABI).
 *  - Handles stay valid-to-*check* after destroy: a destroyed or
 *    double-destroyed handle makes the next call return
 *    ICG_ERR_BAD_HANDLE — never undefined behaviour. (Handles encode a
 *    slot+generation into the pointer value; they are never
 *    dereferenced.)
 *
 * Checkpoint blobs produced here are the engine's native versioned,
 *  CRC-framed wire format (docs/ARCHITECTURE.md, "Checkpoint wire
 * format"): a blob saved through the C ABI restores in the C++ API and
 * vice versa, provided backend and configuration match.
 */
#ifndef ICGKIT_CAPI_ICGKIT_H
#define ICGKIT_CAPI_ICGKIT_H

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Bump on any incompatible change to the structs or functions below. */
#define ICG_ABI_VERSION 1u

/* ------------------------------------------------------------------ */
/* Status codes                                                        */
/* ------------------------------------------------------------------ */

/* Every function that can fail returns an int status: ICG_OK (0) or a
 * positive count on success, one of the negative codes below on
 * failure. Failures never leave a session in an undefined state: the
 * call is either fully applied or not applied (except where a code's
 * documentation states the session becomes poisoned). */
typedef enum icg_status {
  ICG_OK = 0,
  /* A NULL pointer argument where one is required. */
  ICG_ERR_NULL_ARG = -1,
  /* Handle does not name a live session (destroyed, double-destroyed,
   * or never valid). */
  ICG_ERR_BAD_HANDLE = -2,
  /* icg_config.abi_version does not equal ICG_ABI_VERSION. */
  ICG_ERR_ABI_MISMATCH = -3,
  /* A config field is out of range (backend unknown, sample rate
   * outside [125, 1000] Hz, zero max_chunk, nonzero reserved field,
   * ...). */
  ICG_ERR_BAD_CONFIG = -4,
  /* The operation is illegal in the session's current state (push
   * after finish, finish twice, push, finish or checkpoint after a
   * restore whose payload was refused, ...). */
  ICG_ERR_BAD_STATE = -5,
  /* Push length exceeds icg_config.max_chunk. */
  ICG_ERR_CHUNK_TOO_LARGE = -6,
  /* The session's beat queue overflowed: the caller must poll between
   * pushes. The overflowing beats are lost, so the session is poisoned
   * — queued beats still drain via poll, but further pushes keep
   * returning this code. */
  ICG_ERR_BEAT_BACKLOG = -7,
  /* Checkpoint blob rejected: corrupt frame, truncated, version or
   * configuration mismatch (including a blob saved by the other
   * numeric backend), or a payload the engine's loaders refuse. See
   * icg_session_restore for the state a refused session is left in. */
  ICG_ERR_BAD_CHECKPOINT = -8,
  /* Caller-provided buffer too small; required size is reported where
   * the function documents it. */
  ICG_ERR_BUFFER_TOO_SMALL = -9,
  /* Out of sessions (the fixed handle table is full) or out of memory
   * during create. */
  ICG_ERR_NO_RESOURCES = -10,
  /* An internal invariant failed (a bug). icg_last_error() carries the
   * detail. */
  ICG_ERR_INTERNAL = -11,
  /* A pushed sample is NaN or infinite. Nothing of the chunk is
   * applied: the session (and any recording) is as before the call. */
  ICG_ERR_BAD_SAMPLE = -12
} icg_status;

/* ------------------------------------------------------------------ */
/* Configuration                                                       */
/* ------------------------------------------------------------------ */

typedef enum icg_backend {
  /* Double-precision reference arithmetic. */
  ICG_BACKEND_DOUBLE = 0,
  /* Q1.31 fixed-point sample-rate front (the FPU-less firmware path);
   * the beat-rate tail is double on both backends. */
  ICG_BACKEND_Q31 = 1
} icg_backend;

/* Session configuration. Always initialize with icg_config_init()
 * (which fills the defaults and stamps abi_version), then override
 * fields. Layout: doubles first, then 32-bit fields, no padding. */
typedef struct icg_config {
  double sample_rate_hz;        /* synchronized ECG+Z sample rate, in
                                 * [125, 1000] Hz: the rates the filter
                                 * kernels are designed and tested for */
  double window_s;              /* look-back window (default 12 s) */
  uint32_t abi_version;         /* must be ICG_ABI_VERSION */
  uint32_t backend;             /* an icg_backend value */
  uint32_t enable_ensemble;     /* 0/1: optional ensemble-average stage */
  uint32_t max_chunk;           /* largest per-push length (samples) */
  uint32_t beat_queue_capacity; /* poll backlog before BEAT_BACKLOG */
  uint32_t reserved[5];         /* must be zero */
} icg_config;

/* ------------------------------------------------------------------ */
/* Output records                                                      */
/* ------------------------------------------------------------------ */

/* icg_beat.flaws bits (mirrors the C++ BeatFlaw set). A beat with
 * flaws == 0 is usable. */
#define ICG_FLAW_INVALID_DELINEATION  (1u << 0)
#define ICG_FLAW_PEP_OUT_OF_RANGE     (1u << 1)
#define ICG_FLAW_LVET_OUT_OF_RANGE    (1u << 2)
#define ICG_FLAW_AMPLITUDE_OUT_OF_RANGE (1u << 3)
#define ICG_FLAW_RR_OUT_OF_RANGE      (1u << 4)
#define ICG_FLAW_LOW_SNR              (1u << 5)
#define ICG_FLAW_SATURATED            (1u << 6)
#define ICG_FLAW_FLATLINE             (1u << 7)

/* One fully processed beat: the C projection of the C++ BeatRecord's
 * determinism-relevant fields (the beat_serializer wire shape). All
 * sample indices are absolute positions in the pushed stream. Layout:
 * 64-bit fields first, then 32-bit fields, no padding. */
typedef struct icg_beat {
  /* delineation (absolute sample indices) */
  uint64_t r;            /* ECG R peak opening this beat's R-R window */
  uint64_t b;            /* ICG B point (aortic valve opening) */
  uint64_t c;            /* ICG C point ((dZ/dt)max) */
  uint64_t x;            /* ICG X point (aortic valve closure) */
  uint64_t b0;           /* initial B estimate (line-fit intersection) */
  double c_amplitude;    /* ICG value at C, Ohm/s */
  double rr_s;           /* this beat's R-to-R interval, seconds */
  /* hemodynamics */
  double pep_s;
  double lvet_s;
  double hr_bpm;
  double dzdt_max;       /* Ohm/s */
  double sv_kubicek_ml;
  double sv_sramek_ml;
  double co_kubicek_l_min;
  double tfc_per_kohm;
  /* verdicts */
  uint32_t b_method;     /* B-point method the delineator used */
  uint32_t valid;        /* 0/1: delineation structurally valid */
  uint32_t flaws;        /* ICG_FLAW_* bits; 0 == usable */
  uint32_t reserved;     /* zero */
} icg_beat;

/* Running per-session quality aggregate (the C projection of the C++
 * QualitySummary). All fields 64-bit, no padding. */
typedef struct icg_quality_summary {
  uint64_t beats;                  /* beats emitted */
  uint64_t usable;                 /* beats with no flaw */
  uint64_t flaw_counts[8];         /* per-flaw-bit counts, by bit index */
  uint64_t ecg_dropouts;           /* contact gaps on the ECG channel */
  uint64_t z_dropouts;             /* contact gaps on the impedance channel */
  uint64_t detector_resets;        /* QRS relearns triggered by recovery */
  uint64_t ensemble_folds_skipped; /* folds skipped over contact gaps */
  uint64_t snr_beats;              /* beats with a measured SNR */
  double sum_snr_db;               /* over snr_beats */
  double min_snr_db;               /* worst measured beat SNR */
} icg_quality_summary;

/* Opaque session handle. Never dereference: the value encodes a slot
 * and a generation, so stale handles are detected, not trapped on. */
typedef struct icg_session icg_session;

/* ------------------------------------------------------------------ */
/* ABI negotiation and errors                                          */
/* ------------------------------------------------------------------ */

/* The ABI revision this library was built as. A caller compiled
 * against a different ICG_ABI_VERSION must not use the library. */
uint32_t icg_abi_version(void);

/* Human-readable detail of this thread's most recent failure. Never
 * NULL; empty string when nothing failed yet. The buffer is
 * thread-local (a plain static in the embedded profile) and is
 * overwritten by the next failing call. */
const char* icg_last_error(void);

/* Stable name of a status code ("ICG_ERR_BAD_HANDLE"), for logs. */
const char* icg_status_name(int status);

/* ------------------------------------------------------------------ */
/* Session lifecycle                                                   */
/* ------------------------------------------------------------------ */

/* Fills `cfg` with the defaults: ICG_BACKEND_DOUBLE, 250 Hz, 12 s
 * window, ensemble off, max_chunk 1024, beat queue 256, abi_version
 * stamped. Returns ICG_OK, or ICG_ERR_NULL_ARG. */
int icg_config_init(icg_config* cfg);

/* Creates a session. Returns NULL on failure (icg_last_error() has the
 * detail; the cause is one of ICG_ERR_NULL_ARG / ICG_ERR_ABI_MISMATCH /
 * ICG_ERR_BAD_CONFIG / ICG_ERR_NO_RESOURCES). This is the only call
 * that allocates; push/poll/finish/checkpoint are allocation-free once
 * the session is warm. */
icg_session* icg_session_create(const icg_config* cfg);

/* Feeds `len` synchronized samples (ECG in mV, impedance in Ohm).
 * Completed beats are queued for icg_session_poll_beat. Returns the
 * number of beats newly queued (>= 0), or a negative icg_status
 * (ICG_ERR_BAD_SAMPLE when any sample is NaN or infinite). */
int icg_session_push(icg_session* session, const double* ecg_mv,
                     const double* z_ohm, uint32_t len);

/* Pops the oldest queued beat into *beat. Returns 1 when a beat was
 * written, 0 when the queue is empty, or a negative icg_status. */
int icg_session_poll_beat(icg_session* session, icg_beat* beat);

/* Flushes the stage tails and queues the final beats (end of the
 * recording). The session remains pollable but accepts no more pushes.
 * Returns the number of beats newly queued, or a negative icg_status. */
int icg_session_finish(icg_session* session);

/* Writes the session's running quality aggregate into *summary. */
int icg_session_quality(icg_session* session, icg_quality_summary* summary);

/* ------------------------------------------------------------------ */
/* Checkpoint / restore                                                */
/* ------------------------------------------------------------------ */

/* Exact byte size of the blob icg_session_checkpoint would write right
 * now. Returns 0 on error (bad handle, a session whose state a refused
 * restore lost, internal failure). */
uint32_t icg_session_checkpoint_size(icg_session* session);

/* Serializes the session's full carried state into buf (capacity
 * `cap`). On success writes the blob length to *written and returns
 * ICG_OK. On ICG_ERR_BUFFER_TOO_SMALL, *written receives the required
 * size. The blob is the engine's versioned CRC-framed format and
 * interchanges with the C++ checkpoint()/restore() API. */
int icg_session_checkpoint(icg_session* session, uint8_t* buf, uint32_t cap,
                           uint32_t* written);

/* Restores a checkpoint blob into this session. The session must have
 * been created with the same configuration (backend, sample rate,
 * window, ensemble stage) as the blob's source. Any refusal returns
 * ICG_ERR_BAD_CHECKPOINT, never an abort, in either of two states:
 *  - a blob whose frame (magic, version, section list, section bounds,
 *    CRCs) or recorded configuration is wrong is refused before
 *    anything is touched: the session streams on and any recording
 *    keeps running;
 *  - a blob that passes those checks but whose payload a loader
 *    refuses has already replaced part of the state: push, finish and
 *    checkpoint then return ICG_ERR_BAD_STATE (so the half-loaded
 *    state cannot be saved and carried on) until a restore succeeds.
 * Past the first check an active flight recording is finalized as
 * stopped, the way icg_session_finish finalizes it as finished.
 * Resuming the stream after a successful restore continues the beat
 * sequence byte-identically to the uninterrupted run. */
int icg_session_restore(icg_session* session, const uint8_t* blob,
                        uint32_t len);

/* Destroys the session and invalidates the handle. Returns ICG_OK, or
 * ICG_ERR_BAD_HANDLE for a NULL/stale/double-destroyed handle (safe to
 * call either way — never undefined behaviour). */
int icg_session_destroy(icg_session* session);

/* ------------------------------------------------------------------ */
/* Flight recording (not part of the embedded profile)                 */
/* ------------------------------------------------------------------ */

/* Starts flight-recording this session to `path` in the engine's .icgr
 * format (docs/ARCHITECTURE.md, "Flight record wire format"): every
 * pushed chunk, every emitted beat, and periodic full-state checkpoints,
 * replayable byte-for-byte with tools/replay. Recording taps the push
 * path without perturbing the session's outputs.
 * checkpoint_interval_samples sets the periodic checkpoint cadence in
 * samples; 0 selects the library default. icg_session_finish finalizes
 * an active recording automatically (writes the end marker and closes
 * the file); so does icg_session_restore, marking it stopped, since
 * samples pushed after a restore no longer follow from the recorded
 * state. Returns ICG_OK, ICG_ERR_BAD_STATE (already recording, or after
 * finish), or ICG_ERR_BAD_CHECKPOINT (file cannot be created/written).
 * Absent from libicgkit_embedded.a. */
int icg_session_record_start(icg_session* session, const char* path,
                             uint64_t checkpoint_interval_samples);

/* Stops an active recording: writes the end marker (flagged as stopped,
 * not finished) and closes the file. The session keeps streaming.
 * Returns ICG_OK, or ICG_ERR_BAD_STATE when the session is not
 * recording (including after icg_session_finish already finalized the
 * file). Absent from libicgkit_embedded.a. */
int icg_session_record_stop(icg_session* session);

/* Starts flight-recording this session into an in-process memory
 * buffer instead of a file — the live-session tap a host uses when the
 * .icgr bytes are destined for a socket or a blob store rather than a
 * local disk (the network fleet server's RECS command rides this same
 * mechanism). Cadence and state rules are identical to
 * icg_session_record_start. Absent from libicgkit_embedded.a. */
int icg_session_record_start_mem(icg_session* session,
                                 uint64_t checkpoint_interval_samples);

/* Stops an in-memory recording and copies the finished .icgr bytes
 * into buf (capacity `cap`), writing the byte count to *written. If
 * icg_session_finish or icg_session_restore already finalized the
 * recording, the bytes remain retrievable here exactly once (a restore
 * marks the record stopped). On ICG_ERR_BUFFER_TOO_SMALL, *written
 * receives the required size and the recording stays retrievable.
 * Returns ICG_ERR_BAD_STATE when no in-memory recording exists. */
int icg_session_record_stop_mem(icg_session* session, uint8_t* buf,
                                uint32_t cap, uint32_t* written);

/* Non-throwing structural probe of an in-memory .icgr flight record
 * (header + every section frame and CRC walked end to end). On a valid
 * record writes the requested facts through any non-NULL out pointers
 * (`finished` is 1 only when the record ends with a finish marker — a
 * mid-stream stop or a crash-truncated-but-frame-clean record reports
 * 0) and returns ICG_OK. A corrupt, truncated, or non-.icgr buffer
 * returns ICG_ERR_BAD_CHECKPOINT — never undefined behaviour. Absent
 * from libicgkit_embedded.a. */
int icg_flight_probe(const uint8_t* data, uint32_t len, uint32_t* backend,
                     double* sample_rate_hz, uint64_t* chunks,
                     uint64_t* checkpoints, uint64_t* beats,
                     uint32_t* finished);

/* ------------------------------------------------------------------ */
/* Demo input generator (not part of the embedded profile)             */
/* ------------------------------------------------------------------ */

/* Fills ecg_mv/z_ohm (each of `capacity` samples) with a deterministic
 * synthesized touch-device recording of a paper-roster subject, for
 * demos and parity tests. Writes the sample count to *written. Returns
 * ICG_OK, ICG_ERR_BUFFER_TOO_SMALL (required count in *written), or
 * ICG_ERR_BAD_CONFIG. Absent from libicgkit_embedded.a — firmware
 * feeds real ADC samples instead (see examples/embed_client.c, which
 * carries a pure-C fallback generator). */
int icg_demo_synth_recording(uint32_t subject_index, double duration_s,
                             double sample_rate_hz, double* ecg_mv,
                             double* z_ohm, uint32_t capacity,
                             uint32_t* written);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* ICGKIT_CAPI_ICGKIT_H */
