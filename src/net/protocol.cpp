#include "src/net/protocol.hpp"

#include <cerrno>
#include <cstdlib>

namespace pragmalist::net::protocol {

bool parse_key(std::string_view s, long* out) {
  if (s.empty() || s.size() > 24) return false;
  // strtol skips leading whitespace; " 1" must stay a command error.
  if (s[0] != '-' && (s[0] < '0' || s[0] > '9')) return false;
  char tmp[32];
  s.copy(tmp, s.size());
  tmp[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(tmp, &end, 10);
  if (end != tmp + s.size() || errno == ERANGE) return false;
  *out = v;
  return true;
}

void encode_request(std::string& out, const std::vector<std::string>& args) {
  out += '*';
  out += std::to_string(args.size());
  out += "\r\n";
  for (const auto& a : args) {
    out += '$';
    out += std::to_string(a.size());
    out += "\r\n";
    out += a;
    out += "\r\n";
  }
}

void encode_simple(std::string& out, std::string_view text) {
  out += '+';
  out += text;
  out += "\r\n";
}

void encode_error(std::string& out, std::string_view message) {
  out += '-';
  out += message;
  out += "\r\n";
}

void encode_integer(std::string& out, long value) {
  out += ':';
  out += std::to_string(value);
  out += "\r\n";
}

void encode_bulk(std::string& out, std::string_view bytes) {
  out += '$';
  out += std::to_string(bytes.size());
  out += "\r\n";
  out += bytes;
  out += "\r\n";
}

void encode_int_array(std::string& out, const std::vector<long>& values) {
  out += '*';
  out += std::to_string(values.size());
  out += "\r\n";
  for (const long v : values) encode_integer(out, v);
}

namespace {

/// Parse the decimal count/length after a type byte, terminated by
/// CRLF. Returns kNeedMore when the CRLF has not arrived (only
/// plausible while the digit run stays short -- a CRLF-less digit
/// flood is malformed, not pending), kError on junk, kFrame on
/// success with *value and *after (index past the CRLF) set.
ParseStatus parse_count(const std::string& buf, std::size_t at,
                        std::size_t end, long max, long* value,
                        std::size_t* after, std::string* err) {
  std::size_t i = at;
  bool neg = false;
  if (i < end && buf[i] == '-') {
    neg = true;
    ++i;
  }
  long v = 0;
  std::size_t digits = 0;
  while (i < end && buf[i] >= '0' && buf[i] <= '9') {
    v = v * 10 + (buf[i] - '0');
    ++i;
    if (++digits > 10) {
      *err = "length field too long";
      return ParseStatus::kError;
    }
  }
  if (i >= end) return ParseStatus::kNeedMore;
  if (digits == 0 || buf[i] != '\r') {
    *err = "malformed length field";
    return ParseStatus::kError;
  }
  if (i + 1 >= end) return ParseStatus::kNeedMore;
  if (buf[i + 1] != '\n') {
    *err = "malformed length field";
    return ParseStatus::kError;
  }
  if (neg) v = -v;
  if (v < 0 || v > max) {
    *err = "length out of range";
    return ParseStatus::kError;
  }
  *value = v;
  *after = i + 2;
  return ParseStatus::kFrame;
}

}  // namespace

ParseStatus FrameParser::next(std::vector<std::string>* args) {
  if (failed_) return ParseStatus::kError;
  const std::size_t end = buf_.size();
  std::size_t at = pos_;
  if (at >= end) return ParseStatus::kNeedMore;

  if (buf_[at] != '*') return fail("expected '*' (array header)");
  long argc = 0;
  std::size_t after = 0;
  std::string why;
  switch (parse_count(buf_, at + 1, end, static_cast<long>(kMaxArgs), &argc,
                      &after, &why)) {
    case ParseStatus::kNeedMore:
      if (buffered() > max_frame_) return fail("frame too large");
      return ParseStatus::kNeedMore;
    case ParseStatus::kError:
      return fail(why);
    case ParseStatus::kFrame:
      break;
  }
  if (argc < 1) return fail("empty frame");

  // Write into the caller's strings: a vector reused across frames
  // keeps their capacity, so a steady stream allocates nothing here.
  const auto n_args = static_cast<std::size_t>(argc);
  if (args->size() > n_args) args->resize(n_args);
  args->reserve(n_args);
  at = after;
  for (long i = 0; i < argc; ++i) {
    if (at >= end) {
      if (buffered() > max_frame_) return fail("frame too large");
      return ParseStatus::kNeedMore;
    }
    if (buf_[at] != '$') return fail("expected '$' (bulk header)");
    long len = 0;
    switch (parse_count(buf_, at + 1, end, static_cast<long>(kMaxBulk), &len,
                        &after, &why)) {
      case ParseStatus::kNeedMore:
        if (buffered() > max_frame_) return fail("frame too large");
        return ParseStatus::kNeedMore;
      case ParseStatus::kError:
        return fail(why);
      case ParseStatus::kFrame:
        break;
    }
    const auto n = static_cast<std::size_t>(len);
    if (after + n + 2 > end) {
      if (buffered() > max_frame_) return fail("frame too large");
      return ParseStatus::kNeedMore;
    }
    if (buf_[after + n] != '\r' || buf_[after + n + 1] != '\n')
      return fail("bulk payload not CRLF-terminated");
    const auto k = static_cast<std::size_t>(i);
    if (k < args->size())
      (*args)[k].assign(buf_.data() + after, n);
    else
      args->emplace_back(buf_.data() + after, n);
    at = after + n + 2;
  }

  pos_ = at;
  // Reclaim the consumed prefix once it dominates the buffer, so a
  // long-lived pipelined connection cannot grow it without bound.
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return ParseStatus::kFrame;
}

ParseStatus ReplyParser::next(Reply* reply) {
  if (failed_) return ParseStatus::kError;
  std::size_t at = pos_;
  const std::size_t end = buf_.size();
  if (at >= end) return ParseStatus::kNeedMore;

  Reply r;
  std::string why;

  // CRLF-terminated line starting after the type byte; shared by the
  // +, - and : forms.
  auto take_line = [&](std::size_t from, std::string* line,
                       std::size_t* after) {
    const std::size_t nl = buf_.find("\r\n", from);
    if (nl == std::string::npos) {
      if (buffered() > max_frame_) return ParseStatus::kError;
      return ParseStatus::kNeedMore;
    }
    line->assign(buf_, from, nl - from);
    *after = nl + 2;
    return ParseStatus::kFrame;
  };

  std::size_t after = 0;
  switch (buf_[at]) {
    case '+':
    case '-': {
      std::string line;
      switch (take_line(at + 1, &line, &after)) {
        case ParseStatus::kNeedMore:
          return ParseStatus::kNeedMore;
        case ParseStatus::kError:
          return fail("reply line too long");
        case ParseStatus::kFrame:
          break;
      }
      r.type = buf_[at] == '+' ? Reply::Type::kSimple : Reply::Type::kError;
      r.text = std::move(line);
      break;
    }
    case ':': {
      std::string line;
      switch (take_line(at + 1, &line, &after)) {
        case ParseStatus::kNeedMore:
          return ParseStatus::kNeedMore;
        case ParseStatus::kError:
          return fail("reply line too long");
        case ParseStatus::kFrame:
          break;
      }
      long v = 0;
      if (!parse_key(line, &v)) return fail("malformed integer reply");
      r.type = Reply::Type::kInteger;
      r.integer = v;
      break;
    }
    case '$': {
      long len = 0;
      switch (parse_count(buf_, at + 1, end, static_cast<long>(max_frame_),
                          &len, &after, &why)) {
        case ParseStatus::kNeedMore:
          if (buffered() > max_frame_) return fail("frame too large");
          return ParseStatus::kNeedMore;
        case ParseStatus::kError:
          return fail(why);
        case ParseStatus::kFrame:
          break;
      }
      const auto n = static_cast<std::size_t>(len);
      if (after + n + 2 > end) {
        if (buffered() > max_frame_) return fail("frame too large");
        return ParseStatus::kNeedMore;
      }
      if (buf_[after + n] != '\r' || buf_[after + n + 1] != '\n')
        return fail("bulk payload not CRLF-terminated");
      r.type = Reply::Type::kBulk;
      r.text.assign(buf_, after, n);
      after += n + 2;
      break;
    }
    case '*': {
      long count = 0;
      switch (parse_count(buf_, at + 1, end, kMaxScanCount, &count, &after,
                          &why)) {
        case ParseStatus::kNeedMore:
          if (buffered() > max_frame_) return fail("frame too large");
          return ParseStatus::kNeedMore;
        case ParseStatus::kError:
          return fail(why);
        case ParseStatus::kFrame:
          break;
      }
      r.type = Reply::Type::kIntArray;
      r.ints.reserve(static_cast<std::size_t>(count));
      std::size_t cursor = after;
      for (long i = 0; i < count; ++i) {
        if (cursor >= end || buf_[cursor] != ':') {
          if (cursor >= end) {
            if (buffered() > max_frame_) return fail("frame too large");
            return ParseStatus::kNeedMore;
          }
          return fail("array element is not an integer");
        }
        std::string line;
        switch (take_line(cursor + 1, &line, &cursor)) {
          case ParseStatus::kNeedMore:
            return ParseStatus::kNeedMore;
          case ParseStatus::kError:
            return fail("reply line too long");
          case ParseStatus::kFrame:
            break;
        }
        long v = 0;
        if (!parse_key(line, &v)) return fail("malformed array integer");
        r.ints.push_back(v);
      }
      after = cursor;
      break;
    }
    default:
      return fail("unknown reply type byte");
  }

  pos_ = after;
  if (pos_ > 4096 && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  *reply = std::move(r);
  return ParseStatus::kFrame;
}

}  // namespace pragmalist::net::protocol
