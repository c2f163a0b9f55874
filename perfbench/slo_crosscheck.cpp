// The SLO-ledger replay crosscheck is bench_system's crosscheck_slo, used
// as is: its translation unit is compiled in here (its main() renamed out of
// the way) so both benches judge the ledger by one implementation.
#include <poll.h>

#include <array>

#include "net/framing.h"
#include "net/socket.h"
#include "stack.h"
#include "system/protocol.h"

#define main bench_system_main
#include "bench_system.cpp"
#undef main

namespace perfbench {

namespace {

/// The kSloRequest round trip of UserClient::slo(), but bounded in time: the
/// controller writes the reply with one non-blocking send, and a reply that
/// fails (socket buffer full, or beyond one frame) never arrives.
std::optional<std::string> scrape_slo(std::uint16_t port, int timeout_ms) {
  Socket socket = connect_tcp(port);
  socket.set_nodelay(true);
  socket.write_all(encode_frame(encode_message(HelloMsg{"user", -1})));
  socket.write_all(encode_frame(encode_message(SloRequestMsg{"json", ""})));
  FrameReader reader;
  std::array<std::uint8_t, 1 << 16> buf{};
  const double deadline = now_ms() + timeout_ms;
  while (true) {
    while (auto frame = reader.next()) {
      const Message msg = decode_message(*frame);
      if (const auto* reply = std::get_if<SloReplyMsg>(&msg)) {
        return reply->body;
      }
    }
    const double left = deadline - now_ms();
    if (left <= 0.0) return std::nullopt;
    pollfd pfd{socket.fd(), POLLIN, 0};
    if (::poll(&pfd, 1, static_cast<int>(left) + 1) <= 0) continue;
    const long n = socket.read_some(buf);
    if (n == 0) return std::nullopt;
    if (n > 0) reader.feed({buf.data(), static_cast<std::size_t>(n)});
  }
}

}  // namespace

std::string crosscheck_ledger(std::uint16_t port, long expected_rows) {
  const std::optional<std::string> payload = scrape_slo(port, 10000);
  if (!payload) return "no SLO reply within 10 s";
  SloCaseResult res;
  res.admitted = expected_rows;
  crosscheck_slo(*payload, &res);
  return res.ok ? std::string() : res.error;
}

}  // namespace perfbench
