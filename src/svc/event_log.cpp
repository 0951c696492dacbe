#include "vbatt/svc/event_log.h"

#include <filesystem>
#include <stdexcept>

#include "vbatt/util/wire.h"

namespace vbatt::svc {

EventLogWriter::EventLogWriter(const std::string& path, bool truncate)
    : path_{path} {
  const auto mode = std::ios::binary |
                    (truncate ? std::ios::trunc : std::ios::app);
  out_.open(path, mode);
  if (!out_) {
    throw std::runtime_error{"EventLogWriter: cannot open " + path};
  }
  if (truncate) {
    out_.write(kEventLogMagic.data(),
               static_cast<std::streamsize>(kEventLogMagic.size()));
    out_.flush();
    if (!out_) {
      throw std::runtime_error{"EventLogWriter: cannot write magic to " +
                               path};
    }
  }
}

void EventLogWriter::append(std::string_view payload) {
  char header[8];
  util::wire::store_le(header, util::wire::frame_length(payload.size()));
  util::wire::store_le(header + 4,
                       util::wire::crc32(payload.data(), payload.size()));
  out_.write(header, sizeof header);
  out_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  out_.flush();
  if (!out_) {
    throw std::runtime_error{"EventLogWriter: append failed on " + path_};
  }
  ++records_;
}

EventLogContents read_event_log(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{"read_event_log: cannot open " + path};
  }
  std::string bytes{std::istreambuf_iterator<char>{in},
                    std::istreambuf_iterator<char>{}};
  if (bytes.size() < kEventLogMagic.size() ||
      std::string_view{bytes}.substr(0, kEventLogMagic.size()) !=
          kEventLogMagic) {
    throw std::runtime_error{"read_event_log: " + path +
                             " is not an event log (bad magic)"};
  }

  EventLogContents contents;
  std::size_t pos = kEventLogMagic.size();
  contents.clean_bytes = pos;
  while (pos + 8 <= bytes.size()) {
    util::wire::Reader header{std::string_view{bytes}.substr(pos, 8)};
    const std::uint32_t length = header.u32();
    const std::uint32_t crc = header.u32();
    if (pos + 8 + length > bytes.size()) break;  // torn final record
    const std::string_view payload =
        std::string_view{bytes}.substr(pos + 8, length);
    if (util::wire::crc32(payload.data(), payload.size()) != crc) {
      break;  // corrupt record: drop it and everything after
    }
    contents.records.emplace_back(payload);
    pos += 8 + length;
    contents.clean_bytes = pos;
  }
  contents.dropped_bytes = bytes.size() - contents.clean_bytes;
  return contents;
}

void truncate_event_log(const std::string& path, std::uint64_t clean_bytes) {
  std::error_code ec;
  std::filesystem::resize_file(path, clean_bytes, ec);
  if (ec) {
    throw std::runtime_error{"truncate_event_log: cannot truncate " + path +
                             ": " + ec.message()};
  }
}

}  // namespace vbatt::svc
