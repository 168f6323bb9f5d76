/*
 * embed_client.c — embedding quickstart for the icgkit C ABI.
 *
 * Compiled as plain C (not C++) on purpose: this file is the proof that
 * capi/icgkit.h is consumable from a C toolchain.  It is built twice:
 *
 *  - `embed_client` links the full hosted library and pulls its input
 *    from the synthetic-subject generator (ICG_HAVE_DEMO_SYNTH).
 *  - `embed_smoke` (firmware CI profile) links the -Os -fno-exceptions
 *    static archive libicgkit_embedded.a, which has no synth layer, so
 *    it falls back to a self-contained C signal generator below.  That
 *    also makes the target a link check: any symbol the embedded
 *    archive fails to provide breaks this build.
 *
 * Flow (identical for both builds): check that an unsupported sample
 * rate is refused, create a session, stream fixed-size chunks, poll
 * beats as they surface, finish, read the quality summary, then
 * round-trip a checkpoint into a second session after feeding it
 * corrupt, truncated and CRC-valid-but-refused blobs.  Every call's
 * status is checked — the ABI never aborts on bad input, it reports.
 */

#include "capi/icgkit.h"

#include <math.h>
#include <stdio.h>
#include <string.h>

#define SAMPLE_RATE_HZ 250.0
#define DURATION_S 40.0
#define TOTAL_SAMPLES 10000u /* DURATION_S * SAMPLE_RATE_HZ */
#define CHUNK 250u

/* Static, not stack: firmware targets keep large buffers out of the
 * (small, fixed) thread stack. */
static double g_ecg_mv[TOTAL_SAMPLES];
static double g_z_ohm[TOTAL_SAMPLES];

#if !defined(ICG_HAVE_DEMO_SYNTH)
/*
 * Fallback generator: a deterministic, purely arithmetic ECG + impedance
 * pair good enough to drive the detector.  ECG: 1 mV triangular QRS
 * complexes at 66 bpm over a wandering baseline.  Impedance: 25 Ohm
 * base with a ~0.12 Ohm systolic ejection dip trailing each R wave.
 */
static void fill_demo_recording(void) {
  const double rr_s = 60.0 / 66.0;
  unsigned i;
  for (i = 0; i < TOTAL_SAMPLES; ++i) {
    const double t = (double)i / SAMPLE_RATE_HZ;
    const double phase = fmod(t, rr_s) / rr_s; /* 0..1 through the beat */
    double ecg = 0.05 * sin(2.0 * 3.14159265358979 * 0.25 * t);
    double z = 25.0 + 0.02 * sin(2.0 * 3.14159265358979 * 0.2 * t);
    /* QRS: 40 ms triangle centred at 10% of the RR interval. */
    {
      const double qrs = (phase - 0.10) / (0.020 / rr_s);
      if (qrs > -1.0 && qrs < 1.0) ecg += 1.0 * (1.0 - fabs(qrs));
    }
    /* P and T bumps so the ECG band shape is not a bare impulse train. */
    ecg += 0.12 * exp(-0.5 * pow((phase - 0.02) / 0.02, 2.0));
    ecg += 0.25 * exp(-0.5 * pow((phase - 0.35) / 0.05, 2.0));
    /* Ejection dip: impedance falls ~120 ms after R, recovers by 55%. */
    z -= 0.12 * exp(-0.5 * pow((phase - 0.28) / 0.07, 2.0));
    g_ecg_mv[i] = ecg;
    g_z_ohm[i] = z;
  }
}
#endif

static int fill_recording(void) {
#if defined(ICG_HAVE_DEMO_SYNTH)
  uint32_t written = 0;
  const int rc = icg_demo_synth_recording(0u, DURATION_S, SAMPLE_RATE_HZ, g_ecg_mv,
                                          g_z_ohm, TOTAL_SAMPLES, &written);
  if (rc != ICG_OK) {
    fprintf(stderr, "synth recording failed: %s\n", icg_last_error());
    return -1;
  }
  if (written != TOTAL_SAMPLES) {
    fprintf(stderr, "synth recording returned %u samples, expected %u\n",
            (unsigned)written, (unsigned)TOTAL_SAMPLES);
    return -1;
  }
#else
  fill_demo_recording();
#endif
  return 0;
}

/* CRC-32 (IEEE 802.3, reflected 0xEDB88320), one bit at a time: the
 * checksum every checkpoint section carries. */
static uint32_t crc32_ieee(const uint8_t* p, uint32_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  uint32_t i;
  int k;
  for (i = 0; i < n; ++i) {
    crc ^= p[i];
    for (k = 0; k < 8; ++k) crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
  }
  return crc ^ 0xFFFFFFFFu;
}

/* XORs the first payload byte of the section tagged `tag` with `mask`
 * and re-stamps that section's CRC, so the blob's frame stays intact
 * and only a loader's own check can refuse it.  Sections follow the
 * 8-byte header as [tag 4][payload length u32 LE][payload][CRC u32 LE].
 * Applying the same edit twice restores the blob.  Returns 0, or -1
 * when no section carries `tag`. */
static int restamp_first_byte(uint8_t* blob, uint32_t len, const char* tag, uint8_t mask) {
  uint32_t pos = 8;
  while (pos + 8u <= len) {
    const uint8_t* f = blob + pos + 4;
    const uint32_t n = (uint32_t)f[0] | ((uint32_t)f[1] << 8) | ((uint32_t)f[2] << 16) |
                       ((uint32_t)f[3] << 24);
    if (memcmp(blob + pos, tag, 4) == 0) {
      uint8_t* payload = blob + pos + 8;
      uint32_t crc;
      int i;
      payload[0] ^= mask;
      crc = crc32_ieee(payload, n);
      for (i = 0; i < 4; ++i) payload[n + (uint32_t)i] = (uint8_t)(crc >> (8 * i));
      return 0;
    }
    pos += 12u + n;
  }
  return -1;
}

/* Drains every queued beat, counting them and remembering the last one. */
static int drain_beats(icg_session* session, icg_beat* last, unsigned* count) {
  icg_beat beat;
  int rc;
  while ((rc = icg_session_poll_beat(session, &beat)) == 1) {
    *last = beat;
    ++*count;
  }
  return rc; /* 0 = drained, negative = error */
}

static int run_backend(uint32_t backend, const char* name) {
  icg_config cfg;
  icg_session* session;
  icg_session* twin;
  icg_quality_summary quality;
  icg_beat last;
  unsigned beats = 0;
  unsigned offset;
  int rc;

  memset(&last, 0, sizeof last);
  if (icg_config_init(&cfg) != ICG_OK) return -1;
  cfg.backend = backend;

  /* A rate outside [125, 1000] Hz must be refused with
   * ICG_ERR_BAD_CONFIG before any filter is designed: in the embedded
   * build, whose core has no exceptions, a design fault aborts. */
  cfg.sample_rate_hz = 50.0;
  if (icg_session_create(&cfg) != NULL ||
      strstr(icg_last_error(), "ICG_ERR_BAD_CONFIG") == NULL) {
    fprintf(stderr, "[%s] 50 Hz config not refused: %s\n", name, icg_last_error());
    return -1;
  }
  cfg.sample_rate_hz = SAMPLE_RATE_HZ;

  session = icg_session_create(&cfg);
  if (session == NULL) {
    fprintf(stderr, "[%s] create failed: %s\n", name, icg_last_error());
    return -1;
  }

  for (offset = 0; offset < TOTAL_SAMPLES; offset += CHUNK) {
    rc = icg_session_push(session, g_ecg_mv + offset, g_z_ohm + offset, CHUNK);
    if (rc < 0) {
      fprintf(stderr, "[%s] push failed: %s\n", name, icg_last_error());
      return -1;
    }
    if (drain_beats(session, &last, &beats) < 0) return -1;
  }

  /* Checkpoint mid-state (before finish) and restore it into a twin
   * session — the blob format is the same one the C++ API emits. */
  {
    /* The blob holds the analysis window ring buffers, so it scales
     * with window_s * sample_rate: ~0.5 MiB covers the defaults. A real
     * firmware would size this once via icg_session_checkpoint_size. */
    static uint8_t blob[512u * 1024u];
    uint32_t written = 0;
    const uint32_t need = icg_session_checkpoint_size(session);
    if (need == 0 || need > sizeof blob) {
      fprintf(stderr, "[%s] checkpoint size %u unusable: %s\n", name,
              (unsigned)need, icg_last_error());
      return -1;
    }
    rc = icg_session_checkpoint(session, blob, sizeof blob, &written);
    if (rc != ICG_OK) {
      fprintf(stderr, "[%s] checkpoint failed: %s\n", name, icg_last_error());
      return -1;
    }
    twin = icg_session_create(&cfg);
    if (twin == NULL) return -1;
    /* A corrupt or truncated blob must come back as a negative status —
     * never a panic/abort — even in the embedded build, whose core has
     * no exceptions to unwind with.  This is the firmware CI's smoke
     * check of the boundary's checked restore path. */
    blob[written / 2] ^= 0xFFu;
    rc = icg_session_restore(twin, blob, written);
    if (rc != ICG_ERR_BAD_CHECKPOINT) {
      fprintf(stderr, "[%s] corrupt blob not refused (rc=%d)\n", name, rc);
      return -1;
    }
    blob[written / 2] ^= 0xFFu; /* undo the bit flip */
    rc = icg_session_restore(twin, blob, written / 2);
    if (rc != ICG_ERR_BAD_CHECKPOINT) {
      fprintf(stderr, "[%s] truncated blob not refused (rc=%d)\n", name, rc);
      return -1;
    }
    /* Intact frames, refused payloads: the first ECGC stage-presence
     * byte cleared, then the low byte of RING's first ring capacity
     * flipped, each under a re-stamped CRC.  The loaders refuse them by
     * value, so the no-exceptions build reports instead of aborting. */
    {
      static const char* const tags[2] = {"ECGC", "RING"};
      int t;
      for (t = 0; t < 2; ++t) {
        if (restamp_first_byte(blob, written, tags[t], 0x01u) != 0) {
          fprintf(stderr, "[%s] blob has no %s section\n", name, tags[t]);
          return -1;
        }
        rc = icg_session_restore(twin, blob, written);
        (void)restamp_first_byte(blob, written, tags[t], 0x01u); /* undo */
        if (rc != ICG_ERR_BAD_CHECKPOINT) {
          fprintf(stderr, "[%s] re-stamped %s blob not refused (rc=%d)\n", name, tags[t],
                  rc);
          return -1;
        }
      }
    }
    /* Those restores had replaced part of the state before the refusal,
     * so the twin takes no pushes until a good restore brings it back. */
    rc = icg_session_push(twin, g_ecg_mv, g_z_ohm, CHUNK);
    if (rc != ICG_ERR_BAD_STATE) {
      fprintf(stderr, "[%s] push after a refused restore returned %d\n", name, rc);
      return -1;
    }
    rc = icg_session_restore(twin, blob, written);
    if (rc != ICG_OK) {
      fprintf(stderr, "[%s] restore failed: %s\n", name, icg_last_error());
      return -1;
    }
    rc = icg_session_push(twin, g_ecg_mv, g_z_ohm, CHUNK);
    if (rc < 0) {
      fprintf(stderr, "[%s] push after restore failed: %s\n", name, icg_last_error());
      return -1;
    }
    if (icg_session_destroy(twin) != ICG_OK) return -1;
    printf("[%s] checkpoint round-trip: %u bytes\n", name, (unsigned)written);
  }

  rc = icg_session_finish(session);
  if (rc < 0) {
    fprintf(stderr, "[%s] finish failed: %s\n", name, icg_last_error());
    return -1;
  }
  if (drain_beats(session, &last, &beats) < 0) return -1;

  rc = icg_session_quality(session, &quality);
  if (rc != ICG_OK) return -1;

  printf("[%s] beats=%u usable=%u last: hr=%.1f bpm pep=%.1f ms lvet=%.1f ms "
         "sv=%.1f ml\n",
         name, beats, (unsigned)quality.usable, last.hr_bpm, last.pep_s * 1e3,
         last.lvet_s * 1e3, last.sv_kubicek_ml);

  if (icg_session_destroy(session) != ICG_OK) return -1;
  if (icg_session_destroy(session) != ICG_ERR_BAD_HANDLE) {
    fprintf(stderr, "[%s] double destroy was not rejected\n", name);
    return -1;
  }
  if (beats == 0) {
    fprintf(stderr, "[%s] no beats detected\n", name);
    return -1;
  }
  return 0;
}

int main(void) {
  if (icg_abi_version() != ICG_ABI_VERSION) {
    fprintf(stderr, "ABI mismatch: header %u, library %u\n",
            (unsigned)ICG_ABI_VERSION, (unsigned)icg_abi_version());
    return 1;
  }
  if (fill_recording() != 0) return 1;
  if (run_backend(ICG_BACKEND_DOUBLE, "double") != 0) return 1;
  if (run_backend(ICG_BACKEND_Q31, "q31") != 0) return 1;
  printf("embed client OK\n");
  return 0;
}
