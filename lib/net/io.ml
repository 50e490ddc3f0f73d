let rec retry_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> retry_eintr f

let recv fd buf off len = retry_eintr (fun () -> Unix.read fd buf off len)

let send fd buf len =
  let sent = ref 0 in
  while !sent < len do
    sent := !sent + retry_eintr (fun () -> Unix.single_write fd buf !sent (len - !sent))
  done
