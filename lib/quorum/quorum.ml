(* Every acceptor carries one vote; a quorum is a strict majority. *)
let threshold ~n = (n / 2) + 1

module Acceptor = struct
  type t = {
    mutable acc_version : int;
    mutable acc_digest : int64;
    mutable com_version : int;
    mutable com_digest : int64;
  }

  type verdict = Accept | Repeat | Stale | Conflict

  let create () =
    { acc_version = 0; acc_digest = 0L; com_version = 0; com_digest = 0L }

  let receive t ~version ~digest =
    if version <= t.com_version then
      if version = t.com_version && not (Int64.equal digest t.com_digest) then
        Conflict
      else Stale
    else if version < t.acc_version then Stale
    else if
      version = t.acc_version && t.acc_version > 0
      && Int64.equal digest t.acc_digest
    then Repeat
    else begin
      (* Either a fresh version, or a re-proposal of an uncommitted
         version after its round died — the newer proposal supersedes
         the acceptance, never a commitment. *)
      t.acc_version <- version;
      t.acc_digest <- digest;
      Accept
    end

  let accepted t =
    if t.acc_version = 0 then None else Some (t.acc_version, t.acc_digest)

  let commit t ~version ~digest =
    if version = t.com_version then
      if Int64.equal digest t.com_digest then Ok ()
      else
        Error
          (Printf.sprintf "divergent commit at version %d (%Lx vs %Lx)" version
             t.com_digest digest)
    else if version < t.com_version then
      Error
        (Printf.sprintf "commit regresses from version %d to %d" t.com_version
           version)
    else begin
      t.com_version <- version;
      t.com_digest <- digest;
      (* Committing also settles the acceptance window: stale proposals
         below the commit can never matter again. *)
      if t.acc_version < version then begin
        t.acc_version <- version;
        t.acc_digest <- digest
      end;
      Ok ()
    end

  let committed t = t.com_version
  let committed_digest t = t.com_digest
end

module Round = struct
  type outcome = Pending | Committed | Abandoned

  (* Per-acceptor round status: 0 undecided, 1 voted, 2 lost. *)
  type t = {
    n : int;
    r_version : int;
    r_digest : int64;
    status : int array;
    mutable r_outcome : outcome;
  }

  let start ~n ~version ~digest =
    if n < 1 then
      invalid_arg "Quorum.Round.start: acceptor count must be at least 1";
    {
      n;
      r_version = version;
      r_digest = digest;
      status = Array.make n 0;
      r_outcome = Pending;
    }

  let version t = t.r_version
  let digest t = t.r_digest
  let outcome t = t.r_outcome

  let accept t ~acceptor =
    if acceptor < 0 || acceptor >= t.n then
      invalid_arg "Quorum.Round.accept: acceptor out of range";
    if t.status.(acceptor) <> 1 then t.status.(acceptor) <- 1

  let fail t ~acceptor =
    if acceptor < 0 || acceptor >= t.n then
      invalid_arg "Quorum.Round.fail: acceptor out of range";
    if t.status.(acceptor) = 0 then t.status.(acceptor) <- 2

  let count t keep =
    let sum = ref 0 in
    for i = 0 to t.n - 1 do
      if keep t.status.(i) then incr sum
    done;
    !sum

  let accept_votes t = count t (fun st -> st = 1)
  let has_quorum t = accept_votes t >= threshold ~n:t.n
  let can_reach_quorum t = count t (fun st -> st <> 2) >= threshold ~n:t.n

  let mark_committed t = t.r_outcome <- Committed
  let mark_abandoned t = t.r_outcome <- Abandoned
end
