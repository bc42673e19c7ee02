#include "net/protocol.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>

namespace adarts::net {

namespace {

// --- little-endian primitives -------------------------------------------

void AppendU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void AppendU32(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendU64(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<std::uint64_t>(v));
}

void AppendBytes(std::string* out, std::string_view bytes) {
  AppendU32(out, static_cast<std::uint32_t>(bytes.size()));
  out->append(bytes);
}

/// Bounds-checked cursor over one frame body: every Read* returns false
/// instead of reading past the end, so decode never trusts a hostile size.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

  bool ReadU8(std::uint8_t* v) {
    if (remaining() < 1) return false;
    *v = static_cast<std::uint8_t>(data_[pos_++]);
    return true;
  }

  bool ReadU32(std::uint32_t* v) {
    if (remaining() < 4) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      *v |= static_cast<std::uint32_t>(
                static_cast<std::uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 4;
    return true;
  }

  bool ReadU64(std::uint64_t* v) {
    if (remaining() < 8) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      *v |= static_cast<std::uint64_t>(
                static_cast<std::uint8_t>(data_[pos_ + i]))
            << (8 * i);
    }
    pos_ += 8;
    return true;
  }

  bool ReadF64(double* v) {
    std::uint64_t bits = 0;
    if (!ReadU64(&bits)) return false;
    *v = std::bit_cast<double>(bits);
    return true;
  }

  bool ReadBytes(std::size_t n, std::string* out) {
    if (remaining() < n) return false;
    out->assign(data_.substr(pos_, n));
    pos_ += n;
    return true;
  }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- series --------------------------------------------------------------

void AppendSeries(std::string* out, const ts::TimeSeries& series) {
  AppendBytes(out, series.name());
  AppendU64(out, series.length());
  for (std::size_t i = 0; i < series.length(); ++i) {
    // NaN is the wire marker for "missing"; masked positions may hold any
    // placeholder locally, so the mask wins over the stored value.
    AppendF64(out, series.IsMissing(i)
                       ? std::numeric_limits<double>::quiet_NaN()
                       : series.value(i));
  }
}

Status DecodeSeries(Reader* in, ts::TimeSeries* out) {
  std::uint32_t name_len = 0;
  if (!in->ReadU32(&name_len) || name_len > kMaxNameBytes ||
      in->remaining() < name_len) {
    return Status::InvalidArgument("frame: bad series name length");
  }
  std::string name;
  if (!in->ReadBytes(name_len, &name)) {
    return Status::InvalidArgument("frame: truncated series name");
  }
  std::uint64_t length = 0;
  if (!in->ReadU64(&length) || length > kMaxSeriesLength ||
      in->remaining() < length * 8) {
    return Status::InvalidArgument("frame: bad series length");
  }
  la::Vector values(static_cast<std::size_t>(length));
  std::vector<bool> missing(static_cast<std::size_t>(length), false);
  for (std::size_t i = 0; i < length; ++i) {
    double v = 0.0;
    if (!in->ReadF64(&v)) {
      return Status::InvalidArgument("frame: truncated series values");
    }
    if (std::isnan(v)) {
      missing[i] = true;
      values[i] = 0.0;
    } else if (!std::isfinite(v)) {
      return Status::InvalidArgument("frame: non-finite observed value");
    } else {
      values[i] = v;
    }
  }
  ts::TimeSeries series(std::move(values), std::move(missing));
  series.set_name(std::move(name));
  *out = std::move(series);
  return Status::OK();
}

Status DecodeSeriesVector(Reader* in, std::size_t max_count,
                          std::vector<ts::TimeSeries>* out) {
  std::uint32_t count = 0;
  if (!in->ReadU32(&count) || count > max_count) {
    return Status::InvalidArgument("frame: bad series count");
  }
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ts::TimeSeries series;
    ADARTS_RETURN_NOT_OK(DecodeSeries(in, &series));
    out->push_back(std::move(series));
  }
  return Status::OK();
}

}  // namespace

bool IsValidMessageType(std::uint8_t value) {
  return value >= static_cast<std::uint8_t>(MessageType::kPing) &&
         value <= static_cast<std::uint8_t>(MessageType::kStats);
}

std::string EncodeRequest(const Request& request) {
  std::string out;
  AppendU8(&out, static_cast<std::uint8_t>(request.type));
  AppendU64(&out, request.id);
  AppendF64(&out, request.deadline_ms);
  AppendU32(&out, static_cast<std::uint32_t>(request.series.size()));
  for (const ts::TimeSeries& series : request.series) {
    AppendSeries(&out, series);
  }
  AppendBytes(&out, request.text);
  return out;
}

Result<Request> DecodeRequest(std::string_view body) {
  Reader in(body);
  Request request;
  std::uint8_t type = 0;
  if (!in.ReadU8(&type) || !IsValidMessageType(type)) {
    return Status::InvalidArgument("frame: bad request type");
  }
  request.type = static_cast<MessageType>(type);
  if (!in.ReadU64(&request.id) || !in.ReadF64(&request.deadline_ms)) {
    return Status::InvalidArgument("frame: truncated request header");
  }
  if (std::isnan(request.deadline_ms)) {
    return Status::InvalidArgument("frame: NaN deadline");
  }
  ADARTS_RETURN_NOT_OK(
      DecodeSeriesVector(&in, kMaxSeriesPerRequest, &request.series));
  std::uint32_t text_len = 0;
  if (!in.ReadU32(&text_len) || text_len > kMaxMessageBytes ||
      !in.ReadBytes(text_len, &request.text)) {
    return Status::InvalidArgument("frame: bad request text field");
  }
  if (!in.exhausted()) {
    return Status::InvalidArgument("frame: trailing bytes in request");
  }
  const bool no_series = request.type == MessageType::kPing ||
                         request.type == MessageType::kReload ||
                         request.type == MessageType::kStats;
  const std::size_t expected =
      no_series ? 0
                : (request.type == MessageType::kRecommendBatch
                       ? request.series.size()
                       : 1);
  if (request.series.size() != expected ||
      (request.type == MessageType::kRecommendBatch &&
       request.series.empty())) {
    return Status::InvalidArgument("frame: wrong series count for type");
  }
  if (request.type != MessageType::kReload && !request.text.empty()) {
    return Status::InvalidArgument("frame: text field on non-reload request");
  }
  return request;
}

std::string EncodeResponse(const Response& response) {
  std::string out;
  AppendU8(&out, static_cast<std::uint8_t>(response.type));
  AppendU64(&out, response.id);
  AppendU8(&out, static_cast<std::uint8_t>(response.code));
  AppendBytes(&out, response.message);
  AppendU32(&out, static_cast<std::uint32_t>(response.algorithms.size()));
  for (const std::string& name : response.algorithms) {
    AppendBytes(&out, name);
  }
  AppendU32(&out, static_cast<std::uint32_t>(response.series.size()));
  for (const ts::TimeSeries& series : response.series) {
    AppendSeries(&out, series);
  }
  AppendU64(&out, response.engine_version);
  AppendBytes(&out, response.text);
  return out;
}

Result<Response> DecodeResponse(std::string_view body) {
  Reader in(body);
  Response response;
  std::uint8_t type = 0;
  if (!in.ReadU8(&type) || !IsValidMessageType(type)) {
    return Status::InvalidArgument("frame: bad response type");
  }
  response.type = static_cast<MessageType>(type);
  std::uint8_t code = 0;
  if (!in.ReadU64(&response.id) || !in.ReadU8(&code) ||
      code > static_cast<std::uint8_t>(StatusCode::kUnavailable)) {
    return Status::InvalidArgument("frame: bad response header");
  }
  response.code = static_cast<StatusCode>(code);
  std::uint32_t message_len = 0;
  if (!in.ReadU32(&message_len) || message_len > kMaxMessageBytes ||
      !in.ReadBytes(message_len, &response.message)) {
    return Status::InvalidArgument("frame: bad response message");
  }
  std::uint32_t algo_count = 0;
  if (!in.ReadU32(&algo_count) || algo_count > kMaxSeriesPerRequest) {
    return Status::InvalidArgument("frame: bad algorithm count");
  }
  response.algorithms.reserve(algo_count);
  for (std::uint32_t i = 0; i < algo_count; ++i) {
    std::uint32_t len = 0;
    std::string name;
    if (!in.ReadU32(&len) || len > kMaxNameBytes || !in.ReadBytes(len, &name)) {
      return Status::InvalidArgument("frame: bad algorithm name");
    }
    response.algorithms.push_back(std::move(name));
  }
  ADARTS_RETURN_NOT_OK(
      DecodeSeriesVector(&in, kMaxSeriesPerRequest, &response.series));
  if (!in.ReadU64(&response.engine_version)) {
    return Status::InvalidArgument("frame: truncated engine_version");
  }
  std::uint32_t text_len = 0;
  if (!in.ReadU32(&text_len) || text_len > kMaxTextBytes ||
      !in.ReadBytes(text_len, &response.text)) {
    return Status::InvalidArgument("frame: bad response text field");
  }
  if (!in.exhausted()) {
    return Status::InvalidArgument("frame: trailing bytes in response");
  }
  if (response.type != MessageType::kStats && !response.text.empty()) {
    return Status::InvalidArgument("frame: text field on non-stats response");
  }
  return response;
}

Status WriteFrame(Socket& socket, std::string_view body) {
  if (body.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame body exceeds kMaxFrameBytes");
  }
  std::string prefix;
  AppendU32(&prefix, static_cast<std::uint32_t>(body.size()));
  ADARTS_RETURN_NOT_OK(socket.WriteAll(prefix.data(), prefix.size()));
  return socket.WriteAll(body.data(), body.size());
}

Result<std::string> ReadFrame(Socket& socket, std::size_t max_body_bytes) {
  std::uint8_t prefix[4];
  ADARTS_RETURN_NOT_OK(socket.ReadExact(prefix, sizeof(prefix)));
  std::uint32_t body_len = 0;
  for (int i = 0; i < 4; ++i) {
    body_len |= static_cast<std::uint32_t>(prefix[i]) << (8 * i);
  }
  if (body_len > max_body_bytes) {
    return Status::InvalidArgument("frame length " + std::to_string(body_len) +
                                   " exceeds cap " +
                                   std::to_string(max_body_bytes));
  }
  std::string body(body_len, '\0');
  if (body_len > 0) {
    ADARTS_RETURN_NOT_OK(socket.ReadExact(body.data(), body.size()));
  }
  return body;
}

Status WriteRequest(Socket& socket, const Request& request) {
  return WriteFrame(socket, EncodeRequest(request));
}

Result<Response> ReadResponse(Socket& socket) {
  ADARTS_ASSIGN_OR_RETURN(std::string body, ReadFrame(socket));
  return DecodeResponse(body);
}

Result<Response> Call(Socket& socket, const Request& request) {
  const Status written = WriteRequest(socket, request);
  // An oversized request is refused before a byte is sent: nothing to read.
  if (written.code() == StatusCode::kInvalidArgument) return written;
  Result<Response> response = ReadResponse(socket);
  if (!response.ok()) return written.ok() ? response.status() : written;
  if (response->ok() &&
      (response->type != request.type || response->id != request.id)) {
    return Status::Internal(
        "reply echoes type " +
        std::to_string(static_cast<int>(response->type)) + " id " +
        std::to_string(response->id) + ", expected type " +
        std::to_string(static_cast<int>(request.type)) + " id " +
        std::to_string(request.id));
  }
  return response;
}

}  // namespace adarts::net
