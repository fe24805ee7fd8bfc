#include "viz/dashboard.hpp"

#include <sstream>

#include "common/table.hpp"
#include "common/units.hpp"

namespace exadigit {

std::string render_rack_power_heatmap(const DigitalTwin& twin, bool use_color) {
  const auto& rack_w = twin.engine().power_model().rack_wall_power_w();
  HeatmapOptions options;
  options.columns = twin.config().cdu_count;
  options.use_color = use_color;
  options.title = "rack wall power";
  options.unit = "kW";
  std::vector<double> kw(rack_w.size());
  for (std::size_t i = 0; i < rack_w.size(); ++i) kw[i] = units::kw_from_watts(rack_w[i]);
  return render_heatmap(kw, options);
}

std::string render_cooling_panel(const DigitalTwin& twin) {
  std::ostringstream os;
  if (!twin.cooling_enabled()) {
    os << "cooling model: disabled\n";
    return os.str();
  }
  const PlantOutputs& o = twin.cooling().outputs();
  AsciiTable t({"Loop", "Supply (C)", "Return (C)", "Flow (gpm)", "Staged", "Power (kW)"});
  double sec_supply = 0.0;
  double sec_return = 0.0;
  double sec_flow = 0.0;
  double cdu_power = 0.0;
  for (const auto& c : o.cdus) {
    sec_supply += c.sec_supply_t_c;
    sec_return += c.sec_return_t_c;
    sec_flow += units::gpm_from_m3s(c.sec_flow_m3s);
    cdu_power += c.pump_power_w;
  }
  const double n = static_cast<double>(o.cdus.size());
  t.add_row({"CDU-rack (avg)", AsciiTable::num(sec_supply / n, 1),
             AsciiTable::num(sec_return / n, 1), AsciiTable::num(sec_flow / n, 0),
             AsciiTable::integer(static_cast<long long>(o.cdus.size())) + " pumps",
             AsciiTable::num(units::kw_from_watts(cdu_power), 1)});
  t.add_row({"Primary (HTW)", AsciiTable::num(o.pri_supply_t_c, 1),
             AsciiTable::num(o.pri_return_t_c, 1),
             AsciiTable::num(units::gpm_from_m3s(o.pri_flow_m3s), 0),
             AsciiTable::integer(o.htwp_staged) + " HTWP / " +
                 AsciiTable::integer(o.ehx_staged) + " EHX",
             AsciiTable::num(units::kw_from_watts(o.htwp_power_w), 1)});
  t.add_row({"Cooling tower", AsciiTable::num(o.ct_supply_t_c, 1),
             AsciiTable::num(o.ct_return_t_c, 1), "-",
             AsciiTable::integer(o.ctwp_staged) + " CTWP / " +
                 AsciiTable::integer(o.ct_cells_staged) + " cells",
             AsciiTable::num(units::kw_from_watts(o.ctwp_power_w + o.fan_power_w), 1)});
  os << t.render();
  os << "PUE " << AsciiTable::num(o.pue, 4) << "  |  fan speed "
     << AsciiTable::num(100.0 * o.fan_speed, 0) << " %\n";
  return os.str();
}

std::string render_dashboard(const DigitalTwin& twin, const DashboardOptions& options) {
  std::ostringstream os;
  const auto& engine = twin.engine();
  const PowerSample& p = engine.power().time_s >= 0 ? engine.power() : engine.power();

  os << "=== ExaDigiT :: " << twin.config().name << " @ t="
     << AsciiTable::num(engine.now_s() / units::kSecondsPerHour, 2) << " h ===\n";
  os << "P_system " << AsciiTable::num(units::mw_from_watts(p.system_power_w), 2)
     << " MW  |  losses " << AsciiTable::num(units::mw_from_watts(p.loss_w()), 2)
     << " MW (eta " << AsciiTable::num(p.eta_system, 3) << ")  |  util "
     << AsciiTable::num(100.0 * engine.utilization(), 1) << " %  |  running "
     << engine.running_count() << "  queued " << engine.queued_count() << "\n\n";

  os << render_rack_power_heatmap(twin, options.use_color) << '\n';
  os << render_cooling_panel(twin) << '\n';

  const TimeSeries& power = engine.power_series_mw();
  if (!power.empty()) {
    os << "P_system (MW)  " << sparkline(power.values(), options.sparkline_width) << ' '
       << AsciiTable::num(power.values().back(), 1) << '\n';
  }
  const TimeSeries& util = engine.utilization_series();
  if (!util.empty()) {
    os << "utilization    " << sparkline(util.values(), options.sparkline_width) << ' '
       << AsciiTable::num(util.values().back(), 2) << '\n';
  }
  const TimeSeries pue = twin.pue_series();
  if (twin.cooling_enabled() && !pue.empty()) {
    os << "PUE            " << sparkline(pue.values(), options.sparkline_width) << ' '
       << AsciiTable::num(pue.values().back(), 3) << '\n';
  }
  return os.str();
}

}  // namespace exadigit
