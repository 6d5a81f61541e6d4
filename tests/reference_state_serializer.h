#ifndef MBTA_TESTS_REFERENCE_STATE_SERIALIZER_H_
#define MBTA_TESTS_REFERENCE_STATE_SERIALIZER_H_

#include <iomanip>
#include <sstream>
#include <string>

#include "service/state.h"

namespace mbta {

/// The ostringstream codec that the to_chars serializer replaced, kept as
/// the byte-identity oracle of state_serializer_test.
inline std::string ReferenceFormatDelta(const Delta& delta) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << ToString(delta.kind) << ' ' << delta.id;
  switch (delta.kind) {
    case DeltaKind::kAddWorker:
      out << ' ' << delta.worker.capacity << ' ' << delta.worker.unit_cost
          << ' ' << delta.worker.fatigue << ' ' << delta.worker.reliability;
      for (double s : delta.worker.skills) out << ' ' << s;
      break;
    case DeltaKind::kAddTask:
      out << ' ' << delta.task.capacity << ' ' << delta.task.payment << ' '
          << delta.task.value << ' ' << delta.task.difficulty << ' '
          << delta.task.requester;
      for (double s : delta.task.required_skills) out << ' ' << s;
      break;
    case DeltaKind::kRemoveWorker:
    case DeltaKind::kRemoveTask:
      break;
    case DeltaKind::kWorkerCapacity:
    case DeltaKind::kTaskCapacity:
      out << ' ' << delta.capacity;
      break;
    case DeltaKind::kTaskPayment:
    case DeltaKind::kTaskValue:
      out << ' ' << delta.amount;
      break;
  }
  return out.str();
}

inline std::string ReferenceSerializeServiceState(const ServiceState& state) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "mbta-service-state v1\n";
  out << "epoch " << state.epoch << '\n';
  out << "wal_records " << state.wal_records << '\n';
  out << "reference " << state.reference_bits << '\n';
  out << "workers " << state.workers.size() << '\n';
  for (const StableWorker& sw : state.workers) {
    const Worker& w = sw.worker;
    out << "w " << sw.id << ' ' << w.capacity << ' ' << w.unit_cost << ' '
        << w.fatigue << ' ' << w.reliability;
    for (double s : w.skills) out << ' ' << s;
    out << '\n';
  }
  out << "tasks " << state.tasks.size() << '\n';
  for (const StableTask& st : state.tasks) {
    const Task& t = st.task;
    out << "t " << st.id << ' ' << t.capacity << ' ' << t.payment << ' '
        << t.value << ' ' << t.difficulty << ' ' << t.requester;
    for (double s : t.required_skills) out << ' ' << s;
    out << '\n';
  }
  out << "pairs " << state.pairs.size() << '\n';
  for (const StablePair& p : state.pairs) {
    out << "a " << p.worker << ' ' << p.task << '\n';
  }
  out << "pending " << state.pending.size() << '\n';
  for (const Delta& d : state.pending) {
    out << "d " << ReferenceFormatDelta(d) << '\n';
  }
  return out.str();
}

}  // namespace mbta

#endif  // MBTA_TESTS_REFERENCE_STATE_SERIALIZER_H_
