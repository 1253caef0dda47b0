// Event-to-frame representations (paper §III-B, refs [53]-[58]).
//
// Converts a time window of events into the stacked-2D-matrix input a CNN
// expects. All variants return a [C, H, W] tensor. The conversion cost
// (operations + buffer traffic) is reported through the active OpCounter —
// it is exactly the "Data - Preparation" axis of Table I.
#pragma once

#include <span>
#include <string>

#include "events/event.hpp"
#include "nn/tensor.hpp"

namespace evd::cnn {

enum class Representation {
  CountSigned,     ///< 1 channel: #ON - #OFF per pixel [53].
  CountTwoChannel, ///< 2 channels: #ON, #OFF per pixel [54].
  TimeSurface,     ///< 2 channels: normalised time since last event [56].
  ExpTimeSurface,  ///< 2 channels: exp(-(t_end - t_last)/tau) [56].
  Combined,        ///< 4 channels: counts + exp time surface [57].
};

const char* representation_name(Representation repr);

/// Channel count of a representation.
Index representation_channels(Representation repr);

struct FrameOptions {
  Representation repr = Representation::CountTwoChannel;
  /// Normalise count channels by this value (events saturate above it).
  float count_scale = 4.0f;
  /// Time constant for exponential surfaces, as a fraction of the window.
  double tau_fraction = 0.3;
};

/// Build the dense frame for events in [t_begin, t_end) over a W x H sensor.
nn::Tensor build_frame(std::span<const events::Event> window, Index width,
                       Index height, TimeUs t_begin, TimeUs t_end,
                       const FrameOptions& options);

/// Caller-owned scratch for build_frame_into: per-pixel last-event-time
/// maps, `width * height` entries each. Only surface representations read
/// them; pass empty spans otherwise.
struct FrameScratch {
  std::span<TimeUs> last_on;
  std::span<TimeUs> last_off;
};

/// build_frame writing into a caller-owned `frame` ([C, H, W], already
/// shaped) reusing caller-owned scratch: allocation-free and bitwise
/// identical to build_frame. The streaming session owns frame + scratch,
/// sized at open, and rebuilds in place every frame period.
void build_frame_into(std::span<const events::Event> window, Index width,
                      Index height, TimeUs t_begin, TimeUs t_end,
                      const FrameOptions& options, nn::Tensor& frame,
                      const FrameScratch& scratch);

/// Slice a full recording into fixed-period frames and build each one.
std::vector<nn::Tensor> build_frame_sequence(const events::EventStream& stream,
                                             TimeUs frame_period_us,
                                             const FrameOptions& options);

/// HATS — Histograms of Averaged Time Surfaces (Sironi et al. [56]).
///
/// The sensor is tiled into `cell` x `cell` cells; every event contributes
/// the exponential time-surface patch of its (2R+1)^2 neighbourhood to its
/// cell's per-polarity histogram, which is normalised by the cell's event
/// count. Output is conv-compatible: [2 * (2R+1)^2, H/cell, W/cell].
struct HatsOptions {
  Index cell = 8;          ///< Cell side in pixels.
  Index radius = 2;        ///< Time-surface patch radius R.
  double tau_us = 50000.0; ///< Exponential decay constant.
};

nn::Tensor build_hats(std::span<const events::Event> window, Index width,
                      Index height, const HatsOptions& options);

}  // namespace evd::cnn
