#include "raps/power_model.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace exadigit {

RapsPowerModel::RapsPowerModel(const SystemConfig& config)
    : config_(config), rack_model_(config.rack, config.power) {
  config_.validate();
  groups_per_rack_ = rack_model_.groups_per_rack();
  nodes_per_group_ = rack_model_.nodes_per_group();
  const int total_groups = config_.rack_count * groups_per_rack_;

  // Per-node idle power resolved once: the per-sample partition scan the
  // old model ran for every node of every running job is now a lookup.
  idle_node_w_.resize(static_cast<std::size_t>(config_.total_nodes()));
  std::size_t n = 0;
  for (const auto& p : config_.partitions) {
    const double idle = p.node.idle_power_w();
    for (int i = 0; i < p.node_count && n < idle_node_w_.size(); ++i) {
      idle_node_w_[n++] = idle;
    }
  }
  const double default_idle = config_.node.idle_power_w();
  for (; n < idle_node_w_.size(); ++n) idle_node_w_[n] = default_idle;

  idle_group_output_w_.assign(static_cast<std::size_t>(total_groups), 0.0);
  for (int node = 0; node < config_.total_nodes(); ++node) {
    idle_group_output_w_[static_cast<std::size_t>(node / nodes_per_group_)] +=
        idle_node_w_[static_cast<std::size_t>(node)];
  }
  group_output_w_ = idle_group_output_w_;
  rack_wall_w_.assign(static_cast<std::size_t>(config_.rack_count), 0.0);
  cdu_wall_w_.assign(static_cast<std::size_t>(config_.cdu_count), 0.0);
  rack_results_.resize(static_cast<std::size_t>(config_.rack_count));
  rack_dirty_.assign(static_cast<std::size_t>(config_.rack_count), 0);
  rebuild_all_racks(/*use_memo=*/true);
}

double RapsPowerModel::projected_job_wall_w(const JobRecord& job) const {
  const NodeConfig& cfg = node_config_for(job);
  const double node_delta_w = cfg.peak_power_w() - cfg.idle_power_w();
  const double eta = std::clamp(sample_.eta_system, 0.5, 1.0);
  return node_delta_w * static_cast<double>(job.node_count) / eta;
}

const NodeConfig& RapsPowerModel::node_config_for(const JobRecord& job) const {
  if (!job.partition.empty()) {
    for (const auto& p : config_.partitions) {
      if (p.name == job.partition) return p.node;
    }
    throw ConfigError("job references unknown partition: " + job.partition);
  }
  return config_.node;
}

double RapsPowerModel::idle_node_power_w(int node_index) const {
  if (!config_.partitions.empty()) {
    int cursor = 0;
    for (const auto& p : config_.partitions) {
      if (node_index < cursor + p.node_count) return p.node.idle_power_w();
      cursor += p.node_count;
    }
  }
  return config_.node.idle_power_w();
}

double RapsPowerModel::job_node_power_w(const JobRecord& job, const NodeConfig& cfg,
                                        double now, double start_time_s) const {
  const double since = now - start_time_s;
  const double cu = job.cpu_util_at(since, config_.simulation.trace_quantum_s);
  const double gu = job.gpu_util_at(since, config_.simulation.trace_quantum_s);
  return cfg.power_w(cu, gu);
}

void RapsPowerModel::mark_rack_of_group(int group) {
  const int rack = group / groups_per_rack_;
  if (rack_dirty_[static_cast<std::size_t>(rack)] == 0) {
    rack_dirty_[static_cast<std::size_t>(rack)] = 1;
    dirty_racks_.push_back(rack);
  }
}

void RapsPowerModel::apply_span_delta(const std::vector<GroupSpan>& spans,
                                      double delta_w) {
  // Spans are group-sorted, so consecutive entries usually share a rack;
  // tracking the last marked rack skips most dirty-flag lookups.
  int last_rack = -1;
  for (const GroupSpan& s : spans) {
    group_output_w_[static_cast<std::size_t>(s.group)] +=
        delta_w * static_cast<double>(s.count);
    const int rack = s.group / groups_per_rack_;
    if (rack != last_rack) {
      mark_rack_of_group(s.group);
      last_rack = rack;
    }
  }
}

int RapsPowerModel::on_job_start(const JobRecord& job, const std::vector<int>& nodes,
                                 double start_time_s) {
  const NodeConfig& cfg = node_config_for(job);  // resolved once; throws early
  int slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int>(active_.size());
    active_.emplace_back();
  }
  ActiveJob& a = active_[static_cast<std::size_t>(slot)];
  a.job = job;
  a.start_time_s = start_time_s;
  a.applied_node_w = 0.0;
  a.node_cfg = &cfg;
  a.live = true;
  // Fold the job's allocation into per-group spans once (allocations are
  // contiguous runs, so spans are ~nodes / nodes_per_group entries), and
  // drop the nodes from the idle baseline; the running power arrives as a
  // delta at the next advance().
  a.spans.clear();
  for (const int node : nodes) {
    const int group = node / nodes_per_group_;
    if (a.spans.empty() || a.spans.back().group != group) {
      a.spans.push_back(GroupSpan{group, 0, 0.0});
    }
    a.spans.back().count += 1;
    a.spans.back().idle_sum_w += idle_node_w_[static_cast<std::size_t>(node)];
  }
  for (const GroupSpan& s : a.spans) {
    group_output_w_[static_cast<std::size_t>(s.group)] -= s.idle_sum_w;
    mark_rack_of_group(s.group);
  }
  active_nodes_ += static_cast<int>(nodes.size());
  return slot;
}

void RapsPowerModel::on_job_stop(int handle) {
  require(handle >= 0 && handle < static_cast<int>(active_.size()) &&
              active_[static_cast<std::size_t>(handle)].live,
          "on_job_stop: invalid or already-stopped job handle");
  ActiveJob& a = active_[static_cast<std::size_t>(handle)];
  int nodes = 0;
  for (const GroupSpan& s : a.spans) {
    group_output_w_[static_cast<std::size_t>(s.group)] +=
        s.idle_sum_w - a.applied_node_w * static_cast<double>(s.count);
    mark_rack_of_group(s.group);
    nodes += s.count;
  }
  active_nodes_ -= nodes;
  a.live = false;
  a.job = JobRecord{};
  a.spans.clear();
  a.node_cfg = nullptr;
  free_slots_.push_back(handle);
}

// exadigit-hot-begin(power-advance)
const PowerSample& RapsPowerModel::advance(double now) {
  // Slot order is deterministic, which keeps delta accumulation (and hence
  // floating-point rounding) reproducible across runs and engine modes.
  for (ActiveJob& a : active_) {
    if (!a.live) continue;
    const double p = job_node_power_w(a.job, *a.node_cfg, now, a.start_time_s);
    if (p != a.applied_node_w) {
      apply_span_delta(a.spans, p - a.applied_node_w);
      a.applied_node_w = p;
    }
  }
  refresh_dirty_racks();
  fill_sample(now);
  return sample_;
}

RackPowerResult RapsPowerModel::evaluate_rack(int r) {
  const std::span<const double> groups(
      group_output_w_.data() + static_cast<std::size_t>(r) * groups_per_rack_,
      static_cast<std::size_t>(groups_per_rack_));
  // Uniform racks (one job or all idle — the common case) go through a
  // whole-rack memo keyed on the shared group value.
  bool uniform = true;
  for (int g = 1; g < groups_per_rack_; ++g) {
    if (groups[static_cast<std::size_t>(g)] != groups[0]) {
      uniform = false;
      break;
    }
  }
  if (uniform) {
    const RackPowerResult* hit = rack_memo_.find(groups[0]);
    if (hit != nullptr) return *hit;
    const RackPowerResult fresh = rack_model_.from_group_outputs(groups, &memo_);
    rack_memo_.insert(groups[0], fresh);
    return fresh;
  }
  return rack_model_.from_group_outputs(groups, &memo_);
}

void RapsPowerModel::refresh_dirty_racks() {
  if (dirty_racks_.empty()) return;
  // The memo persists across refreshes: keys are exact load values, so a
  // stale hit is still the exact conversion result, and recurring operating
  // points (idle groups, steady jobs) skip re-evaluation entirely.
  // Rack order fixes the accumulation (and its rounding) independently of
  // which job dirtied a rack first, and walks group_output_w_ in order.
  std::sort(dirty_racks_.begin(), dirty_racks_.end());
  for (const int r : dirty_racks_) {
    const RackPowerResult fresh = evaluate_rack(r);
    const RackPowerResult& old = rack_results_[static_cast<std::size_t>(r)];
    total_input_w_ += fresh.input_w - old.input_w;
    total_output_w_ += fresh.node_output_w - old.node_output_w;
    switch_output_w_ += fresh.switch_output_w - old.switch_output_w;
    rect_loss_w_ += fresh.rectifier_loss_w - old.rectifier_loss_w;
    sivoc_loss_w_ += fresh.sivoc_loss_w - old.sivoc_loss_w;
    rack_wall_w_[static_cast<std::size_t>(r)] = fresh.input_w;
    cdu_wall_w_[static_cast<std::size_t>(config_.cdu_of_rack(r))] +=
        fresh.input_w - old.input_w;
    rack_results_[static_cast<std::size_t>(r)] = fresh;
    rack_dirty_[static_cast<std::size_t>(r)] = 0;
  }
  dirty_racks_.clear();
}
// exadigit-hot-end

void RapsPowerModel::rebuild_all_racks(bool use_memo) {
  memo_.clear();
  ConversionMemo* memo = use_memo ? &memo_ : nullptr;
  std::fill(cdu_wall_w_.begin(), cdu_wall_w_.end(), 0.0);
  total_input_w_ = 0.0;
  total_output_w_ = 0.0;
  switch_output_w_ = 0.0;
  rect_loss_w_ = 0.0;
  sivoc_loss_w_ = 0.0;
  for (int r = 0; r < config_.rack_count; ++r) {
    const std::span<const double> groups(
        group_output_w_.data() + static_cast<std::size_t>(r) * groups_per_rack_,
        static_cast<std::size_t>(groups_per_rack_));
    const RackPowerResult rack = rack_model_.from_group_outputs(groups, memo);
    rack_results_[static_cast<std::size_t>(r)] = rack;
    rack_wall_w_[static_cast<std::size_t>(r)] = rack.input_w;
    cdu_wall_w_[static_cast<std::size_t>(config_.cdu_of_rack(r))] += rack.input_w;
    total_input_w_ += rack.input_w;
    total_output_w_ += rack.node_output_w;
    switch_output_w_ += rack.switch_output_w;
    rect_loss_w_ += rack.rectifier_loss_w;
    sivoc_loss_w_ += rack.sivoc_loss_w;
    rack_dirty_[static_cast<std::size_t>(r)] = 0;
  }
  dirty_racks_.clear();
}

void RapsPowerModel::fill_sample(double now) {
  sample_.time_s = now;
  sample_.node_output_w = total_output_w_;
  sample_.rectifier_loss_w = rect_loss_w_;
  sample_.sivoc_loss_w = sivoc_loss_w_;
  sample_.system_power_w =
      total_input_w_ +
      config_.cooling.cdu.pump_avg_w * static_cast<double>(config_.cdu_count);
  sample_.eta_system =
      total_input_w_ > 0.0 ? (total_output_w_ + switch_output_w_) / total_input_w_ : 1.0;
  sample_.active_nodes = active_nodes_;
}

const PowerSample& RapsPowerModel::recompute(double now,
                                             std::span<const RunningJobView> running) {
  // Full rebuild; any incrementally registered jobs are dropped.
  active_.clear();
  free_slots_.clear();
  group_output_w_ = idle_group_output_w_;
  active_nodes_ = 0;
  for (const auto& view : running) {
    require(view.job != nullptr && view.nodes != nullptr, "null running job view");
    const NodeConfig& cfg = node_config_for(*view.job);
    const double p_node = job_node_power_w(*view.job, cfg, now, view.start_time_s);
    active_nodes_ += static_cast<int>(view.nodes->size());
    for (const int node : *view.nodes) {
      group_output_w_[static_cast<std::size_t>(node / nodes_per_group_)] +=
          p_node - idle_node_power_w(node);
    }
  }
  rebuild_all_racks(/*use_memo=*/false);
  fill_sample(now);
  return sample_;
}

std::vector<double> RapsPowerModel::cdu_heat_w() const {
  std::vector<double> heat(cdu_wall_w_.size());
  for (std::size_t i = 0; i < heat.size(); ++i) {
    heat[i] = cdu_wall_w_[i] * config_.cooling.cooling_efficiency;
  }
  return heat;
}

}  // namespace exadigit
