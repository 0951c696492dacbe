// Frozen seed forecaster — the differential oracle for
// energy::Forecaster::forecast.
//
// This is the one-trace, one-lead forecast body as it stood before the
// bulk path: its own climatology pass, masked ratio, two naive centered
// moving averages (value and mask) and a fresh AR(1) noise draw for every
// call. It intentionally redoes all of that per (trace, lead) — it is an
// executable specification, not a fast forecaster. The bulk forecaster
// (shared noise per (source, lead), per-trace work once for all leads,
// blocked moving_average, sliding mask count) must match it bit for bit.
#pragma once

#include <span>
#include <vector>

#include "vbatt/energy/forecast.h"
#include "vbatt/energy/trace.h"

namespace vbatt::testkit {

/// Forecast of `actual` made `lead_hours` ahead under `config`. Must be
/// byte-identical to energy::Forecaster{config}.forecast(actual,
/// lead_hours) and to every entry of the bulk form.
std::vector<double> reference_forecast(const energy::PowerTrace& actual,
                                       double lead_hours,
                                       const energy::ForecastConfig& config = {});

/// The bulk forecaster's inputs for `traces`: a view of each normalized
/// series with its source (the traces must outlive the result).
std::vector<energy::ForecastInput> forecast_inputs(
    std::span<const energy::PowerTrace> traces);

}  // namespace vbatt::testkit
