// Error-raising contract shared by every layer that can be compiled
// into the embedded (firmware-profile) build.
//
// The hosted build raises contract violations as C++ exceptions, exactly
// as before: ICGKIT_THROW(std::invalid_argument("...")) is literally
// `throw std::invalid_argument("...")`, so nothing changes for C++
// consumers and the C ABI boundary (src/capi) can catch and map them to
// error codes.
//
// The firmware profile compiles the Q31 core with -fno-exceptions
// -fno-rtti (see ICGKIT_EMBEDDED_PROFILE in CMakeLists.txt), where the
// `throw` keyword itself is a compile error. Under ICGKIT_NO_EXCEPTIONS
// the macro evaluates the same exception object (its constructor is
// plain code) and hands its what() string to icgkit::contract_panic(),
// which reports and aborts. On an MCU a contract violation is a
// programming error with no one to catch it — fail loudly at the fault,
// not later from scribbled state. The C ABI keeps its error-code
// contract either way: bad arguments and oversized chunks are diagnosed
// by the boundary before reaching a raising core path, and checkpoint
// blobs are read by core::StateReader, which reports every violation by
// value, so panic is reserved for genuine invariant breakage.
//
// Only the layers the embedded library compiles (dsp, ecg, the
// streaming-core files, capi) must use ICGKIT_THROW; host-only layers
// (fleet, synth, platform, report) may keep plain `throw`.
#pragma once

#if defined(ICGKIT_NO_EXCEPTIONS)

namespace icgkit {
/// Reports `what` and aborts. Never returns.
[[noreturn]] void contract_panic(const char* what) noexcept;
} // namespace icgkit

#define ICGKIT_THROW(exception_object) \
  ::icgkit::contract_panic((exception_object).what())

#else

#define ICGKIT_THROW(exception_object) throw(exception_object)

#endif
