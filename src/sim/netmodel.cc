#include "sim/netmodel.h"

#include <algorithm>
#include <limits>

namespace pollux {
namespace {

constexpr double kNever = std::numeric_limits<double>::infinity();
// Floor on every delivery latency: keeps deliver_at strictly after the send
// instant so every message is delivered on a later tick grid point, never
// within the sending handler's own dispatch.
constexpr double kMinLatency = 1e-6;
// Floor on partition dwell times so window generation always advances.
constexpr double kMinDwell = 1e-6;

// splitmix64-style mix so every stream depends only on (seed, stream id).
uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Stream-id spaces: channels use 2*job_id (+1 for decisions) under the raw
// seed; partition tracks salt the seed so they can never collide with a
// channel stream.
constexpr uint64_t kNodeTrackSalt = 0x6e0d65ULL;
constexpr uint64_t kRackTrackSalt = 0x7ac45ULL;

}  // namespace

bool NetProfileByName(const std::string& name, NetOptions* options) {
  NetOptions result;
  if (name.empty() || name == "none") {
    *options = result;
    return true;
  }
  if (name == "lan") {
    result.latency = 0.1;
    result.jitter = 0.05;
    result.loss_rate = 0.005;
    *options = result;
    return true;
  }
  if (name == "flaky") {
    result.latency = 0.5;
    result.jitter = 1.5;
    result.loss_rate = 0.05;
    result.burst_rate = 0.02;
    result.burst_duration = 240.0;
    result.dup_rate = 0.03;
    result.reorder_rate = 0.05;
    result.reorder_extra = 10.0;
    *options = result;
    return true;
  }
  if (name == "partitioned") {
    result.latency = 0.5;
    result.jitter = 1.0;
    result.loss_rate = 0.02;
    result.burst_rate = 0.01;
    result.burst_duration = 180.0;
    result.dup_rate = 0.02;
    result.reorder_rate = 0.03;
    result.reorder_extra = 10.0;
    result.mtbf_partition = 2.0 * 3600.0;
    result.partition_duration = 240.0;
    result.mtbf_rack_partition = 4.0 * 3600.0;
    result.rack_partition_duration = 360.0;
    result.rack_size = 4;
    *options = result;
    return true;
  }
  return false;
}

NetModel::NetModel(NetOptions options, int num_nodes, uint64_t seed)
    : options_(options), seed_(seed) {
  OnClusterResize(num_nodes, 0.0);
}

NetModel::ChannelState& NetModel::GetChannel(std::map<uint64_t, ChannelState>& channels,
                                             uint64_t job_id, uint64_t stream) {
  auto it = channels.find(job_id);
  if (it == channels.end()) {
    ChannelState state;
    state.rng = Rng(MixSeed(seed_, stream));
    it = channels.emplace(job_id, std::move(state)).first;
  }
  return it->second;
}

void NetModel::EnqueueCopy(ChannelState& channel, const Message& message, double attempt) {
  double lat = options_.latency;
  if (options_.jitter > 0.0) {
    lat += channel.rng.Exponential(1.0 / options_.jitter);
  }
  if (options_.reorder_rate > 0.0 && channel.rng.Bernoulli(options_.reorder_rate)) {
    lat += channel.rng.Uniform(0.0, std::max(options_.reorder_extra, 0.0));
  }
  Message copy = message;
  copy.deliver_at = attempt + std::max(lat, kMinLatency);
  copy.seq = next_msg_seq_++;
  inflight_.insert(std::move(copy));
}

NetModel::SendOutcome NetModel::Send(ChannelState& channel, Message message, int node,
                                     double now) {
  SendOutcome outcome;
  message.payload_seq = ++channel.next_seq;
  message.sent_at = now;
  outcome.payload_seq = message.payload_seq;
  double attempt = now;
  double backoff = std::max(options_.retry_backoff_init, kMinDwell);
  const int max_attempts = 1 + std::max(options_.max_retries, 0);
  for (int tries = 0; tries < max_attempts; ++tries) {
    if (tries > 0) {
      // Capped jittered exponential backoff; the jitter draw happens even for
      // attempts that a partition will block, matching an agent that cannot
      // see the network state when it arms its retry timer.
      attempt += backoff * channel.rng.Uniform(0.5, 1.5);
      backoff = std::min(backoff * 2.0, std::max(options_.retry_backoff_cap, backoff));
    }
    outcome.attempts = tries + 1;
    if (node >= 0 && Partitioned(node, attempt)) {
      continue;  // Unreachable: no fate draw, the attempt just times out.
    }
    if (attempt < channel.burst_until) {
      continue;  // Channel is inside a loss burst: dropped, no fate draw.
    }
    if (options_.burst_rate > 0.0 && channel.rng.Bernoulli(options_.burst_rate)) {
      channel.burst_until =
          attempt + std::max(channel.rng.Exponential(1.0 / std::max(options_.burst_duration,
                                                                    kMinDwell)),
                             kMinDwell);
      continue;
    }
    if (options_.loss_rate > 0.0 && channel.rng.Bernoulli(options_.loss_rate)) {
      continue;
    }
    EnqueueCopy(channel, message, attempt);
    if (options_.dup_rate > 0.0 && channel.rng.Bernoulli(options_.dup_rate)) {
      EnqueueCopy(channel, message, attempt);
      outcome.duplicated = true;
    }
    outcome.delivered = true;
    break;
  }
  return outcome;
}

NetModel::SendOutcome NetModel::SendReport(uint64_t job_id, int node,
                                           const AgentReport& report, double now) {
  Message message;
  message.kind = MsgKind::kReport;
  message.job_id = job_id;
  message.node = node;
  message.report = report;
  return Send(GetChannel(report_channels_, job_id, 2 * job_id), std::move(message), node, now);
}

NetModel::SendOutcome NetModel::SendDecision(uint64_t job_id, int node,
                                             const std::vector<int>& row, double now) {
  Message message;
  message.kind = MsgKind::kDecision;
  message.job_id = job_id;
  message.node = node;
  message.row = row;
  return Send(GetChannel(decision_channels_, job_id, 2 * job_id + 1), std::move(message), node,
              now);
}

bool NetModel::SendHeartbeat(int node, double now) {
  if (node < 0 || Partitioned(node, now)) {
    return false;
  }
  Message message;
  message.kind = MsgKind::kHeartbeat;
  message.node = node;
  message.sent_at = now;
  message.deliver_at = now + std::max(options_.latency, kMinLatency);
  message.seq = next_msg_seq_++;
  inflight_.insert(std::move(message));
  return true;
}

std::vector<NetModel::Message> NetModel::PopDue(double now) {
  std::vector<Message> due;
  while (!inflight_.empty() && inflight_.begin()->deliver_at <= now) {
    due.push_back(*inflight_.begin());
    inflight_.erase(inflight_.begin());
  }
  return due;
}

double NetModel::NextDeliveryTime() const {
  return inflight_.empty() ? kNever : inflight_.begin()->deliver_at;
}

NetModel::Track NetModel::MakeTrack(uint64_t salt, uint64_t index) {
  Track track;
  track.rng = Rng(MixSeed(seed_ ^ salt, index));
  return track;
}

void NetModel::ExtendTrack(Track& track, double t, double mtbf, double duration) {
  while (track.tail_time <= t) {
    const bool tail_down = track.head_down != (track.pending.size() % 2 == 1);
    const double mean = tail_down ? duration : mtbf;
    track.tail_time +=
        std::max(track.rng.Exponential(1.0 / std::max(mean, kMinDwell)), kMinDwell);
    track.pending.push_back(track.tail_time);
  }
}

bool NetModel::TrackDownAt(Track& track, double t, double mtbf, double duration) {
  ExtendTrack(track, t, mtbf, duration);
  size_t flips = 0;
  for (double at : track.pending) {
    if (at > t) {
      break;
    }
    ++flips;
  }
  return track.head_down != (flips % 2 == 1);
}

bool NetModel::Partitioned(int node, double t) {
  if (node < 0) {
    return false;
  }
  if (options_.mtbf_partition > 0.0 && node < static_cast<int>(node_tracks_.size()) &&
      TrackDownAt(node_tracks_[static_cast<size_t>(node)], t, options_.mtbf_partition,
                  options_.partition_duration)) {
    return true;
  }
  if (options_.mtbf_rack_partition > 0.0 && options_.rack_size > 0) {
    const int rack = node / options_.rack_size;
    if (rack < static_cast<int>(rack_tracks_.size()) &&
        TrackDownAt(rack_tracks_[static_cast<size_t>(rack)], t, options_.mtbf_rack_partition,
                    options_.rack_partition_duration)) {
      return true;
    }
  }
  return false;
}

std::vector<NetModel::Transition> NetModel::PollTransitions(double now) {
  std::vector<Transition> transitions;
  auto drain = [&](std::vector<Track>& tracks, bool rack, double mtbf, double duration) {
    if (mtbf <= 0.0) {
      return;
    }
    for (size_t i = 0; i < tracks.size(); ++i) {
      Track& track = tracks[i];
      ExtendTrack(track, now, mtbf, duration);
      while (!track.pending.empty() && track.pending.front() <= now) {
        track.head_down = !track.head_down;
        transitions.push_back(
            Transition{track.pending.front(), static_cast<int>(i), rack, track.head_down});
        track.pending.pop_front();
      }
    }
  };
  drain(node_tracks_, false, options_.mtbf_partition, options_.partition_duration);
  drain(rack_tracks_, true, options_.mtbf_rack_partition, options_.rack_partition_duration);
  std::stable_sort(transitions.begin(), transitions.end(),
                   [](const Transition& a, const Transition& b) {
                     if (a.time != b.time) return a.time < b.time;
                     if (a.rack != b.rack) return !a.rack;
                     return a.index < b.index;
                   });
  return transitions;
}

double NetModel::NextTransitionTime() {
  double next = kNever;
  auto probe = [&](std::vector<Track>& tracks, double mtbf, double duration) {
    if (mtbf <= 0.0) {
      return;
    }
    for (Track& track : tracks) {
      if (track.pending.empty()) {
        ExtendTrack(track, track.tail_time, mtbf, duration);
      }
      next = std::min(next, track.pending.front());
    }
  };
  probe(node_tracks_, options_.mtbf_partition, options_.partition_duration);
  probe(rack_tracks_, options_.mtbf_rack_partition, options_.rack_partition_duration);
  return next;
}

void NetModel::OnClusterResize(int num_nodes, double now) {
  (void)now;  // Tracks generate windows from their own tails, not wall time.
  const size_t node_target = static_cast<size_t>(std::max(num_nodes, 0));
  if (node_target < node_tracks_.size()) {
    node_tracks_.resize(node_target);
  }
  while (node_tracks_.size() < node_target) {
    node_tracks_.push_back(MakeTrack(kNodeTrackSalt, node_tracks_created_++));
  }
  size_t rack_target = 0;
  if (options_.mtbf_rack_partition > 0.0 && options_.rack_size > 0) {
    rack_target = (node_target + static_cast<size_t>(options_.rack_size) - 1) /
                  static_cast<size_t>(options_.rack_size);
  }
  if (rack_target < rack_tracks_.size()) {
    rack_tracks_.resize(rack_target);
  }
  while (rack_tracks_.size() < rack_target) {
    rack_tracks_.push_back(MakeTrack(kRackTrackSalt, rack_tracks_created_++));
  }
}

NetModel::State NetModel::GetState() const {
  State state;
  auto save_channels = [](const std::map<uint64_t, ChannelState>& channels,
                          std::vector<State::Channel>* out) {
    out->reserve(channels.size());
    for (const auto& [job_id, channel] : channels) {
      State::Channel saved;
      saved.job_id = job_id;
      saved.rng = channel.rng.GetState();
      saved.burst_until = channel.burst_until;
      saved.next_seq = channel.next_seq;
      out->push_back(saved);
    }
  };
  save_channels(report_channels_, &state.report_channels);
  save_channels(decision_channels_, &state.decision_channels);
  auto save_tracks = [](const std::vector<Track>& tracks, std::vector<State::Track>* out) {
    out->reserve(tracks.size());
    for (const Track& track : tracks) {
      State::Track saved;
      saved.rng = track.rng.GetState();
      saved.head_down = track.head_down;
      saved.tail_time = track.tail_time;
      saved.pending.assign(track.pending.begin(), track.pending.end());
      out->push_back(std::move(saved));
    }
  };
  save_tracks(node_tracks_, &state.node_tracks);
  save_tracks(rack_tracks_, &state.rack_tracks);
  state.messages.assign(inflight_.begin(), inflight_.end());
  state.next_msg_seq = next_msg_seq_;
  state.node_tracks_created = node_tracks_created_;
  state.rack_tracks_created = rack_tracks_created_;
  return state;
}

void NetModel::SetState(const State& state) {
  auto load_channels = [](const std::vector<State::Channel>& saved,
                          std::map<uint64_t, ChannelState>* out) {
    out->clear();
    for (const State::Channel& channel : saved) {
      ChannelState loaded;
      loaded.rng.SetState(channel.rng);
      loaded.burst_until = channel.burst_until;
      loaded.next_seq = channel.next_seq;
      out->emplace(channel.job_id, std::move(loaded));
    }
  };
  load_channels(state.report_channels, &report_channels_);
  load_channels(state.decision_channels, &decision_channels_);
  auto load_tracks = [](const std::vector<State::Track>& saved, std::vector<Track>* out) {
    out->clear();
    out->reserve(saved.size());
    for (const State::Track& track : saved) {
      Track loaded;
      loaded.rng.SetState(track.rng);
      loaded.head_down = track.head_down;
      loaded.tail_time = track.tail_time;
      loaded.pending.assign(track.pending.begin(), track.pending.end());
      out->push_back(std::move(loaded));
    }
  };
  load_tracks(state.node_tracks, &node_tracks_);
  load_tracks(state.rack_tracks, &rack_tracks_);
  inflight_.clear();
  for (const Message& message : state.messages) {
    inflight_.insert(message);
  }
  next_msg_seq_ = state.next_msg_seq;
  node_tracks_created_ = state.node_tracks_created;
  rack_tracks_created_ = state.rack_tracks_created;
}

}  // namespace pollux
